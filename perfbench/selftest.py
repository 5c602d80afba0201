"""Self-tests of the benchmark, kept out of the package's test suite because
they run every workload (about a minute).

    python3 perfbench/selftest.py

For each workload, at a seed with a committed reference:
- a traced and an untraced pass give identical checked outputs;
- a corrupted reference makes the check count failed units;
- every per-layer metric mapped to the workload is reached (calls, sizes and
  ratios above 0).
It also checks that BENCHMARK.json names the workloads and metrics reported.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402  (needs the path above)
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 1


def corrupt(fields):
    """A copy of the reference fields with one number changed, inside the
    per-unit fields when the workload has them."""
    copy = json.loads(json.dumps(fields))

    def bump(node) -> bool:
        items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                node[key] = value + 1
                return True
            if isinstance(value, (dict, list)) and bump(value):
                return True
        return False

    bump(copy["units"] if "units" in copy else copy)
    return copy


def main() -> int:
    failures = []

    def expect(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message)
        if not condition:
            failures.append(message)

    reference = workloads.load_reference()
    run.RESULTS.mkdir(exist_ok=True)
    for name in run.WORKLOADS:
        plain = run.run_pass(name, SEED, None)
        traced = run.run_pass(name, SEED, run.RESULTS / f"selftest-{name}.spans.json")
        expect("error" not in plain and "error" not in traced, f"{name}: passes run")
        expect(plain.get("referenced") and plain.get("failed") == 0,
               f"{name}: untraced pass matches the reference")
        expect(plain.get("digest") == traced.get("digest"),
               f"{name}: traced and untraced checked outputs agree")
        layers = traced.get("layers", {})
        reached = [f"{span}.calls" for span, mapped in tracing.SPANS.items() if name in mapped]
        reached += [size for size, (_, _, mapped) in tracing.SIZES.items() if name in mapped]
        reached += [ratio for ratio, mapped in tracing.RATIOS.items() if name in mapped]
        missed = [metric for metric in reached if not layers.get(metric, 0) > 0]
        expect(not missed, f"{name}: {len(reached)} mapped per-layer metrics above 0 {missed}")

        workload = workloads.WORKLOADS[name]
        outputs = workload.run(workload.prepare(SEED))
        good = reference[name][str(SEED)]
        _, attempted, failed = workload.check(SEED, outputs, good)
        expect(failed == 0, f"{name}: in-process pass matches the reference")
        _, attempted, failed = workload.check(SEED, outputs, corrupt(good))
        expect(failed > 0, f"{name}: corrupted reference fails {failed} of {attempted} units")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS),
           "BENCHMARK.json lists the workloads")
    expect({m["name"] for m in spec["end_to_end"]} == {"run_s", "setup_s", "peak_rss_mb", "ok_frac"},
           "BENCHMARK.json lists the end-to-end metrics")
    layer_names = [n for n, _ in tracing.layer_metric_names()] + ["trace.overhead_s"]
    expect([m["name"] for m in spec["per_layer"]] == layer_names,
           "BENCHMARK.json lists the per-layer metrics")
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
