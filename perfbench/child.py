"""One benchmark pass in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED [--spans PATH]

hypersat must be importable; run.py points PYTHONPATH at the checkout's src.
Set-up is timed from the start of this script, so it covers importing
hypersat and preparing the inputs. The last line printed is a JSON object with
the set-up and pass times, the peak RSS at the end of the pass, the work
units attempted and failed, the digest of the checked fields and, with
--spans, the per-layer metrics of the traced pass.
"""

import time

_START = time.perf_counter()

import argparse
import json
import resource
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--spans", default=None,
                        help="trace the pass and write its spans to this path")
    args = parser.parse_args(argv)

    import tracing
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.prepare(args.seed)
    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracer.install()
    started = time.perf_counter()
    error = None
    try:
        outputs = workload.run(inputs)
    except Exception:
        error = traceback.format_exc()
    finished = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()

    result = {"setup_s": started - _START, "run_s": finished - started,
              "peak_rss_mb": peak_rss_mb}
    if error is None:
        try:
            reference = workloads.load_reference().get(args.workload, {}).get(str(args.seed))
            fields, attempted, failed = workload.check(args.seed, outputs, reference)
            result.update(attempted=attempted, failed=failed,
                          digest=workloads.digest(fields), referenced=reference is not None)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        result["error"] = error
    if tracer:
        layers = tracer.layer_metrics()
        layers.update(dict.fromkeys(tracing.RATIOS, 0.0))
        if error is None and args.workload == "curve":
            layers.update(workload.ratios(outputs, layers["experiments.generate_assignment.calls"]))
        result["layers"] = layers
        tracer.write_spans(args.spans, workload=args.workload, seed=args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
