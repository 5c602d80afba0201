"""The benchmark's workloads: set-up, one timed pass, and the output check.

Each workload has the shape of a `hypersat` CLI command. `prepare(seed)` is
the set-up, `run(inputs)` is the timed pass, and `check(seed, outputs,
reference)` reduces the pass's outputs to the fields that are fixed per seed,
counts work units, and counts the units that fail an invariant or differ from
the committed reference.

The pass calls hypersat through module attributes (`dimacs.parse_dimacs`, not
a name imported into this file), so that the traced run's wrappers, which
replace those attributes, see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
from pathlib import Path

from hypersat import cli, dimacs, experiments, hypernodal, reduction, subclauses

# The package re-exports a function named `formula`, which hides the module.
formula = importlib.import_module("hypersat.formula")

REFERENCE_PATH = Path(__file__).with_name("reference.jsonl")

# `hypersat experiment` runs with every CLI default except --count, which sets
# the length of a pass.
EXPERIMENT_COUNT = 20
# The curve experiment scans a fixed number of seeds. Its default target of 120
# accepted instances is never reached in that many scans, so a pass does the
# same amount of work whatever the seed's luck in accepting.
CURVE_SCANS = 300
CONTRADICTIONS_N = 2000
CONTRADICTIONS_R = 4.25


def digest(fields) -> str:
    """Short hash of the checked fields, comparable across commits and seeds."""
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_reference() -> dict:
    """{workload: {seed: fields}} from the committed JSON-lines reference."""
    reference: dict = {}
    with open(REFERENCE_PATH) as handle:
        for line in handle:
            workload, seed, fields = json.loads(line)
            reference.setdefault(workload, {})[seed] = fields
    return reference


def _cli_stdout(args) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args.func(args)
    return out.getvalue()


def _count_failed(units: list, ref_units: list | None, bad: set[int]) -> int:
    """Units that broke an invariant or differ from the reference."""
    if ref_units is not None:
        bad |= {i for i, unit in enumerate(units)
                if i >= len(ref_units) or unit != ref_units[i]}
    return len(bad)


class Experiment:
    """`hypersat experiment --seed S --count 20`: fraction experiment with the
    CLI's n, r and generators, written as JSON. A unit is an instance."""

    name = "experiment"
    RECORD_KEYS = ("seed", "generator", "fraction", "subclause_count",
                   "minimum_threshold", "maximum_threshold", "inflection")

    def prepare(self, seed: int):
        return cli.build_parser().parse_args(
            ["experiment", "--seed", str(seed), "--count", str(EXPERIMENT_COUNT)])

    def run(self, args) -> str:
        return _cli_stdout(args)

    def check(self, seed: int, text: str, reference: dict | None):
        payload = json.loads(text)
        units: dict[int, list] = {}
        bad = set()
        for rec in payload["records"]:
            units.setdefault(rec["instance"], []).append([rec[k] for k in self.RECORD_KEYS])
            if not (rec["minimum_threshold"] <= rec["maximum_threshold"]
                    and rec["subclause_count"] <= rec["maximum_threshold"]):
                bad.add(rec["instance"])
        fields = {"units": [units[i] for i in sorted(units)],
                  "means": payload["means"], "stdevs": payload["stdevs"]}
        attempted = len(fields["units"])
        if reference is not None and (reference["means"], reference["stdevs"]) != (
                fields["means"], fields["stdevs"]):
            return fields, attempted, attempted
        ref_units = reference["units"] if reference is not None else None
        return fields, attempted, _count_failed(fields["units"], ref_units, bad)


class Curve:
    """`run_curve_experiment` with its own n = 100 and r = 2.5 over a fixed
    number of scanned seeds, written as JSON. A unit is a scanned seed."""

    name = "curve"

    def prepare(self, seed: int):
        return seed

    def run(self, seed: int):
        result = experiments.run_curve_experiment(seed=seed, max_seeds=CURVE_SCANS)
        payload = result.to_json_dict()
        return payload, cli.dump_json(payload)

    def check(self, seed: int, outputs, reference: dict | None):
        payload, _ = outputs
        scanned = payload["seeds_scanned"]
        inflections: list = [None] * scanned
        bad = set()
        for entry in payload["accepted"]:
            unit = entry["seed"] - seed
            inflections[unit] = entry["inflection"]
            # The recorded generator must satisfy a fresh copy of the instance.
            f = formula.random_formula(payload["n"], payload["r"], seed=entry["seed"])
            space = subclauses.build_space(f)
            a = experiments.generate_assignment(entry["generator"], f, space)
            if formula.evaluate(f, a).unsatisfied_ids:
                bad.add(unit)
        fields = {"units": inflections, "mean_curve": payload["mean_curve"]}
        if reference is not None and reference["mean_curve"] != fields["mean_curve"]:
            return fields, scanned, scanned
        ref_units = reference["units"] if reference is not None else None
        return fields, scanned, _count_failed(inflections, ref_units, bad)

    def ratios(self, outputs, generator_calls: int) -> dict[str, float]:
        """The experiment's share of useful scans, for the traced run."""
        payload, _ = outputs
        accepted = len(payload["accepted"])
        return {"experiments.curve.accept_ratio": accepted / payload["seeds_scanned"],
                # Per accepted instance, or in total when a pass accepts none.
                "experiments.curve.generator_calls_per_accept":
                    generator_calls / max(accepted, 1)}


class Verify:
    """`hypersat verify --seed S`: every suite at the CLI defaults (500
    instances, n in 6..12, r = 4.25). A unit is a check."""

    name = "verify"

    def prepare(self, seed: int):
        return cli.build_parser().parse_args(["verify", "--seed", str(seed)])

    def run(self, args) -> str:
        return _cli_stdout(args)

    def check(self, seed: int, text: str, reference: dict | None):
        # Summary lines may precede the JSON list, which starts on a line "[".
        lines = text.splitlines()
        reports = json.loads("\n".join(lines[lines.index("["):]))
        fields = {rep["suite"]: [rep["checks"], rep["falsifications"], rep["skipped"]]
                  for rep in reports}
        attempted = failed = 0
        for suite, (checks, falsifications, _) in fields.items():
            attempted += checks
            if reference is not None and reference.get(suite) != fields[suite]:
                failed += max(checks, 1)
            else:
                failed += falsifications
        if reference is not None:
            failed += sum(max(row[0], 1) for suite, row in reference.items()
                          if suite not in fields)
        return fields, max(attempted, 1), min(failed, max(attempted, 1))


class Contradictions:
    """`hypersat reduce` then `hypersat export --assignment` on one generated
    n = 2000 instance, read from DIMACS text made in set-up. A unit is the
    instance."""

    name = "contradictions"

    def prepare(self, seed: int):
        args = cli.build_parser().parse_args(["reduce"])
        f = formula.random_formula(CONTRADICTIONS_N, CONTRADICTIONS_R, seed)
        return dimacs.emit_dimacs(f), args.heuristic, args.seed

    def run(self, inputs):
        text, heuristic, heuristic_seed = inputs
        f = dimacs.parse_dimacs(text)
        space = subclauses.build_space(f)
        a = experiments.generate_assignment(heuristic, f, space, seed=heuristic_seed)
        t = reduction.reduce_to_2sat(space, f, a)
        verdict = reduction.solve_2sat(t)
        hg = hypernodal.build_hypernodal(space)
        merged = hypernodal.merge_active(hg, a)
        report = hypernodal.find_contradictions(hg, a)
        dot = hypernodal.export_dot(merged)
        return space, a, t, verdict, report, dot

    def check(self, seed: int, outputs, reference: dict | None):
        space, a, t, verdict, report, _ = outputs
        no_unsolved = all(space.pairs[sid][0] in a or space.pairs[sid][1] in a
                          for sid in space.activated(a))
        satisfies = not reduction.assignment_satisfies_2sat(t, a)
        fields = {"satisfiable": verdict.satisfiable, "clauses": t.m,
                  "escaped": len(report.escaped_implications)}
        ok = report.consistent == no_unsolved == satisfies
        if reference is not None:
            ok = ok and reference == fields
        return fields, 1, 0 if ok else 1


WORKLOADS = {w.name: w for w in (Experiment(), Curve(), Verify(), Contradictions())}

