"""Regenerate reference.jsonl, the checked fields of every workload for the
default seeds.

    python3 perfbench/make_reference.py

Passes run in this process and are not timed. Regenerate only for a change
that is meant to alter hypersat's outputs, and say in that change why they
differ. Refuses to write a reference in which some unit breaks an invariant.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs the path above)

DEFAULT_SEEDS = range(16)


def main() -> int:
    lines = []
    for name, workload in workloads.WORKLOADS.items():
        for seed in DEFAULT_SEEDS:
            outputs = workload.run(workload.prepare(seed))
            fields, attempted, failed = workload.check(seed, outputs, None)
            if failed:
                print(f"error: {name} seed {seed}: {failed} of {attempted} units "
                      "break an invariant", file=sys.stderr)
                return 1
            lines.append(json.dumps([name, str(seed), fields], sort_keys=True,
                                    separators=(",", ":")))
            print(f"{name} seed {seed}: {workloads.digest(fields)}", file=sys.stderr)
    workloads.REFERENCE_PATH.write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
