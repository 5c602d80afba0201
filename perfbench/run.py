"""Benchmark of the hypersat CLI workloads.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from anywhere; the checkout is this file's parent directory. Every pass
runs in a fresh single-threaded child process, one at a time and with no
warm-up, because a CLI user pays a cold import on every call. Passes repeat
until the next one would end after --seconds, and every pass gets the same
inputs, made from --seed.

--trace 0 reports the end-to-end metrics as medians over the passes. --trace 1
alternates untraced and traced passes and reports the per-layer metrics of the
traced ones, plus the tracing overhead. The last line printed is a JSON object
with the keys correct, attempted, failed and metrics; with --workload all it
maps each workload to such an object. A results file for each workload goes
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "hypersat"
RESULTS = HERE / "results"

WORKLOADS = ("experiment", "curve", "verify", "contradictions")
# A pass takes under 10 s here; this only stops a hung child.
PASS_TIMEOUT_S = 120


class BenchmarkError(RuntimeError):
    pass


def run_pass(workload: str, seed: int, spans: Path | None) -> dict:
    command = [sys.executable, str(HERE / "child.py"), workload, str(seed)]
    if spans is not None:
        command += ["--spans", str(spans)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchmarkError(f"{workload} pass exited with {proc.returncode}:\n"
                             f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for about `seconds`, then check and summarise them."""
    spans = RESULTS / f"{workload}-seed{seed}.spans.json" if trace else None
    plain: list[dict] = []
    traced: list[dict] = []
    rounds: list[float] = []
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        plain.append(run_pass(workload, seed, None))
        if trace:
            traced.append(run_pass(workload, seed, spans))
        rounds.append(time.perf_counter() - round_start)
        if time.perf_counter() - start + statistics.median(rounds) > seconds:
            break

    passes = plain + traced
    checked = [p for p in passes if "error" not in p]
    units = int(statistics.median(p["attempted"] for p in checked)) if checked else 1
    # Every pass has the same inputs, so traced and untraced passes must agree.
    expected = checked[0]["digest"] if checked else None
    attempted = failed = 0
    for p in passes:
        if "error" in p:
            sys.stderr.write(f"{workload} pass failed:\n{p['error']}\n")
            attempted += units
            failed += units
        else:
            attempted += p["attempted"]
            failed += p["attempted"] if p["digest"] != expected else p["failed"]

    def median(key, group):
        return statistics.median(p[key] for p in group)

    if trace:
        metrics = {name: {"value": statistics.median(p["layers"][name] for p in traced),
                          "unit": unit}
                   for name, unit in tracing.layer_metric_names()}
        metrics["trace.overhead_s"] = {"value": median("run_s", traced) - median("run_s", plain),
                                       "unit": "s"}
    else:
        metrics = {
            "run_s": {"value": median("run_s", plain), "unit": "s"},
            "setup_s": {"value": median("setup_s", plain), "unit": "s"},
            "peak_rss_mb": {"value": median("peak_rss_mb", plain), "unit": "MB"},
            "ok_frac": {"value": 1 - failed / attempted, "unit": "ratio"},
        }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "trace": trace, "seconds": seconds,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "units_per_pass": units, "digest": expected,
        "referenced": all(p.get("referenced") for p in checked),
        "passes": [{k: v for k, v in p.items() if k != "layers"} | {"traced": i >= len(plain)}
                   for i, p in enumerate(passes)],
        "result": result,
    }
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(f"digest {workload} seed={seed}: {expected} "
          f"({'checked against' if record['referenced'] else 'no'} reference for this seed)")
    return result


def summary_line(workload: str, result: dict) -> str:
    failed_frac = result["failed"] / result["attempted"]
    shown = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()
             if not name.endswith((".calls", ".self_s"))]
    return f"{workload}: " + ", ".join(shown + [f"failed_frac {failed_frac:.6g} ratio"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through an exception on SIGTERM, so that subprocess.run kills the
    # running pass and waits for it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no hypersat package at {PACKAGE}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(PACKAGE), quiet=1)
    RESULTS.mkdir(exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace))
            print(summary_line(name, results[name]))
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
