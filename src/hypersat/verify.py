"""Oracle-driven verification suites.

Every suite pits the claim under test against the exhaustive oracle (or an
exhaustive 2-SAT enumeration) on fresh random instances, and reports
hypothesis failures separately from falsifications: only a falsification
means the claim (or the code) is wrong.

`run_suites` walks each instance stream once and hands instance i (from 0),
random_formula(n, r, seed + 7919 * (i + 1)), to every named suite that reads
the stream; a reproducer's n, r and instance seed regenerate it. Each stream
draws from its own Random(seed): `theorem`, `corollary1` and `census` every
n from randint(*n_range) first, then `corollary1`'s assignment seeds;
`merge` and `sandwich` per instance n, then the getrandbits(32) that seeds
the random_assignment both check; `2sat-oracle` n from randint(2,
min(n_range[1], 12)), with r cycling through 0.8, 1.0, 1.5 and 2.0. A stream
holds one instance at a time, and builds a width-3 instance's space with it.
"""

from __future__ import annotations

import random

from .assignments import random_assignment, subclause_count, subclause_total, thresholds
from .formula import (ORACLE_MAX_VARS, Assignment, GuardrailError, assignment_json,
                      random_formula, solve_exhaustive)
from .hypernodal import build_hypernodal, find_contradictions
from .reduction import (HypothesisError, assignment_satisfies_2sat, events_sound,
                        reduce_to_2sat, solve_2sat, verify_corollary1, verify_theorem)
from .subclauses import build_space, space_census


# Reproducers a report keeps; falsifications past these are only counted.
MAX_FAILURES = 10
# Oracle solutions `theorem` checks per instance, and random non-satisfying
# assignments `corollary1` checks per instance.
SOLUTIONS_PER_INSTANCE = 10
ASSIGNMENTS_PER_INSTANCE = 10


class Instance:
    """Instance i of the stream of `rng` and `seed`, and its drawn assignment."""

    def __init__(self, rng: random.Random, i: int, n: int, r: float, seed: int, k: int):
        self.rng, self.i, self.n, self.r, self.seed = rng, i, n, r, seed + 7919 * (i + 1)
        self.formula = random_formula(n, r, seed=self.seed, k=k)
        self.space = build_space(self.formula) if k == 3 else None
        self.assignment: Assignment | None = None


class SuiteReport:
    def __init__(self, suite: str, instances: int, details: dict):
        self.suite = suite
        self.instances = instances
        self.checks = 0
        self.falsifications = 0
        self.skipped = 0  # instances where the hypothesis never applied
        self.details = details
        self.failures: list[dict] = []   # reproducers of the first falsifications

    def record(self, holds: bool, instance: Instance, assignment: Assignment | None) -> None:
        """Count one check, and keep the reproducers of the first MAX_FAILURES
        falsifications: the instance's i, n, r and seed, from which
        `hypersat reduce --gen n,r,seed --assignment ...` regenerates a
        width-3 instance. `assignment` is None where a check has none."""
        self.checks += 1
        if holds:
            return
        self.falsifications += 1
        if len(self.failures) < MAX_FAILURES:
            literals = None if assignment is None else assignment_json(assignment)
            self.failures.append({"suite": self.suite, "seed": instance.seed,
                                  "instance": instance.i, "n": instance.n, "r": instance.r,
                                  "assignment": literals})

    @property
    def ok(self) -> bool:
        return self.falsifications == 0

    def to_json_dict(self) -> dict:
        """The report's fields, leaving out `failures` when it is empty."""
        out = dict(vars(self))
        if not self.failures:
            del out["failures"]
        return out

    def summary_line(self) -> str:
        """One line for stderr; a run without a single check is [vacuous]."""
        status = "FALSIFIED" if not self.ok else "vacuous" if not self.checks else "ok"
        return (f"suite {self.suite}: {self.checks} checks over {self.instances} instances, "
                f"{self.falsifications} falsifications, {self.skipped} skipped [{status}]")


def sizes_stream(instances: int, n_range: tuple[int, int], r: float, seed: int):
    rng = random.Random(seed)
    sizes = [rng.randint(*n_range) for _ in range(instances)]
    return (Instance(rng, i, n, r, seed, 3) for i, n in enumerate(sizes))


def assignment_stream(instances: int, n_range: tuple[int, int], r: float, seed: int):
    rng = random.Random(seed)
    for i in range(instances):
        instance = Instance(rng, i, rng.randint(*n_range), r, seed, 3)
        instance.assignment = random_assignment(instance.n, seed=rng.getrandbits(32))
        yield instance


def width2_stream(instances: int, n_range: tuple[int, int], r: float, seed: int):
    rng = random.Random(seed)
    return (Instance(rng, i, rng.randint(2, min(n_range[1], 12)), (0.8, 1.0, 1.5, 2.0)[i % 4],
                     seed, 2) for i in range(instances))


def theorem_suite(report: SuiteReport, instance: Instance) -> None:
    """Every oracle-found satisfying assignment must satisfy the 2-SAT
    formula it induces, and every sub-clause event of its formula must be
    sound (events_sound).

    The events are checked once per satisfiable instance, and each
    solution's check holds only if they are sound, so an unsound event
    falsifies every solution of its instance."""
    solutions = solve_exhaustive(instance.formula, cap=SOLUTIONS_PER_INSTANCE)
    if not solutions:
        report.skipped += 1
        return
    report.details["satisfiable_instances"] += 1
    space = instance.space
    sound = events_sound(space, space.events())
    for a in solutions:
        report.record(sound and verify_theorem(instance.formula, a, space).holds, instance, a)


def corollary1_suite(report: SuiteReport, instance: Instance) -> None:
    """Every complete non-satisfying assignment must leave an activated
    sub-clause unsolved. It calls no oracle (a check is an evaluation), so
    it runs at every n `verify` accepts."""
    produced = attempt = 0
    while produced < ASSIGNMENTS_PER_INSTANCE and attempt < 50 * ASSIGNMENTS_PER_INSTANCE:
        attempt += 1
        a = random_assignment(instance.n, seed=instance.rng.getrandbits(32))
        try:
            cert = verify_corollary1(instance.formula, a, space=instance.space)
        except HypothesisError:   # a satisfies the formula
            report.details["satisfying_assignments_resampled"] += 1
            continue
        produced += 1
        report.record(cert.holds, instance, a)


def twosat_oracle_suite(report: SuiteReport, instance: Instance) -> None:
    """solve_2sat must agree with exhaustive enumeration, and its returned
    assignments must satisfy the instance.

    The instances are width-2 formulas with n drawn from 2..min(n_range[1], 12)
    and clause ratios cycling through 0.8..2.0, the range where random 2-SAT
    turns from satisfiable to unsatisfiable (threshold 1). `r` is a 3-SAT
    ratio, far above that range, so it is ignored."""
    f = instance.formula
    verdict = solve_2sat(f)
    oracle_sat = bool(solve_exhaustive(f, cap=1))
    violated = verdict.satisfiable and assignment_satisfies_2sat(f, verdict.assignment)
    report.record(verdict.satisfiable == oracle_sat and not violated, instance,
                  verdict.assignment)
    report.details["satisfiable_instances"] += verdict.satisfiable and oracle_sat


def merge_equivalence_suite(report: SuiteReport, instance: Instance) -> None:
    """Three views of one fact must agree for every instance and its random
    assignment: the merged implication graph is contradiction-free, the
    assignment satisfies its induced 2-SAT formula, and no activated
    sub-clause is left unsolved.

    This equality is the complete-assignment case. A partial assignment's
    graph is contradiction-free exactly when it extends to a solution of
    its 2-SAT formula, which unsolved sub-clauses need not prevent; there
    only (P1) "none unsolved implies contradiction-free" and (P2) "a
    witness path or an escaped edge implies one unsolved" hold, and
    tests/test_hypernodal.py checks both."""
    space, a = instance.space, instance.assignment
    graph_verdict = find_contradictions(build_hypernodal(space), a).consistent
    sat_verdict = not assignment_satisfies_2sat(reduce_to_2sat(space, instance.formula, a), a)
    unsolved_verdict = not space.unsolved(a)
    report.record(graph_verdict == sat_verdict == unsolved_verdict, instance, a)
    report.details["consistent_pairs"] += graph_verdict


def sandwich_suite(report: SuiteReport, instance: Instance) -> None:
    """Per-literal activation totals must lie between the thresholds, and the
    distinct activated count can never exceed the maximum. The distinct count
    dropping below the minimum is possible (shared sub-clauses) and is
    reported, not failed.

    For a complete assignment these inequalities hold by arithmetic: the
    total picks one of each variable's two created counts, and the distinct
    count is at most the total. So the suite catches a fault only in
    thresholds, subclause_total or subclause_count themselves."""
    space, a = instance.space, instance.assignment
    th = thresholds(space)
    total = subclause_total(space, a)
    distinct = subclause_count(space, a)
    report.record(th.minimum <= total <= th.maximum and distinct <= th.maximum
                  and th.minimum <= th.maximum, instance, a)
    report.details["distinct_below_minimum"] += distinct < th.minimum


def census_suite(report: SuiteReport, instance: Instance) -> None:
    """|S| never exceeds min(3m, 2n(n-1)) on generated instances.

    Without deduplication |S| would be 3m, which exceeds 2n(n-1) only where
    3r > 2(n - 1). So the suite catches a space that keeps duplicate
    sub-clauses only at small n: n <= 7 at r = 4.25, 143 of the 500 checks
    of a default `verify` run."""
    census = space_census(instance.space)
    report.record(census.actual <= min(census.per_clause_bound, census.possible),
                  instance, None)


# Name -> suite(report, instance), the function itself, so a replaced entry is what runs.
SUITES = {
    "theorem": theorem_suite,
    "corollary1": corollary1_suite,
    "2sat-oracle": twosat_oracle_suite,
    "merge": merge_equivalence_suite,
    "sandwich": sandwich_suite,
    "census": census_suite,
}
# Each stream, with the suites it feeds and the counters their details start from.
STREAMS = ((sizes_stream, {"theorem": ("satisfiable_instances",),
                           "corollary1": ("satisfying_assignments_resampled",), "census": ()}),
           (width2_stream, {"2sat-oracle": ("satisfiable_instances",)}),
           (assignment_stream, {"merge": ("consistent_pairs",),
                                "sandwich": ("distinct_below_minimum",)}))


def run_suites(names, instances: int, n_range: tuple[int, int], r: float, seed: int):
    """The named suites' reports, in SUITES order, from one walk of each stream
    they read. No defaults: the `verify` command's options are their source.
    A name outside SUITES is refused before anything runs."""
    unknown = [name for name in names if name not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites {unknown}, expected names from {list(SUITES)}")
    if "theorem" in names and n_range[1] > ORACLE_MAX_VARS:
        raise GuardrailError(f"theorem's oracle is capped at n <= {ORACLE_MAX_VARS}")
    reports = {}
    for stream, counters in STREAMS:
        fed = {name: SuiteReport(name, instances, dict.fromkeys(keys, 0))
               for name, keys in counters.items() if name in names}
        if fed:
            for instance in stream(instances, n_range, r, seed):
                for name, report in fed.items():
                    SUITES[name](report, instance)
        reports.update(fed)
    return [reports[name] for name in SUITES if name in reports]
