"""Oracle-driven verification suites.

Every suite generates fresh random instances, pits the claim under test
against the exhaustive oracle (or an exhaustive 2-SAT enumeration), and
reports hypothesis failures separately from falsifications: only a
falsification means the claim (or the code) is wrong.

Instance i (from 0) of a suite run with `seed` is random_formula(n, r, s),
where the instance seed s is `seed` plus 7919 * (i + 1), so the n, r and s
that a reproducer records regenerate it. The sizes n come from the suite's
Random(seed), which `corollary1`, `merge` and `sandwich` also draw
assignments from: `corollary1` draws every size before its first
assignment, `merge` and `sandwich` alternate size and assignment, and the
other suites draw sizes only. `2sat-oracle` picks its own n and r (see
there).
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


class SuiteReport:
    def __init__(self, suite: str, instances: int, details: dict | None = None):
        self.suite = suite
        self.instances = instances
        self.checks = 0
        self.falsifications = 0
        self.skipped = 0  # instances where the hypothesis never applied
        self.details = {} if details is None else details
        self.failures: list[dict] = []   # reproducers of the first falsifications

    def record(self, holds: bool, seed: int, instance: int, n: int, r: float,
               assignment: Assignment | None) -> None:
        """Count one check, and keep the reproducers of the first MAX_FAILURES
        falsifications: instance `instance` is random_formula(n, r, seed),
        which `hypersat reduce --gen n,r,seed --assignment ...` regenerates
        for the width-3 suites. `assignment` is None where a check has none."""
        self.checks += 1
        if holds:
            return
        self.falsifications += 1
        if len(self.failures) < MAX_FAILURES:
            literals = None if assignment is None else assignment_json(assignment)
            self.failures.append({"suite": self.suite, "seed": seed, "instance": instance,
                                  "n": n, "r": r, "assignment": literals})

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


def _instances(rng: random.Random, count: int, n_range: tuple[int, int],
               ratios: tuple[float, ...], seed: int, k: int = 3, sizes_first: bool = False):
    """Yield (i, n, r, instance seed, formula) for instances 0..count-1.

    n is rng.randint(*n_range), drawn as instance i is reached, or for every
    instance before the first when `sizes_first`; r cycles through `ratios`."""
    sizes = (rng.randint(*n_range) for _ in range(count))
    if sizes_first:
        sizes = list(sizes)
    for i, n in enumerate(sizes):
        r, f_seed = ratios[i % len(ratios)], seed + 7919 * (i + 1)
        yield i, n, r, f_seed, random_formula(n, r, seed=f_seed, k=k)


def theorem_suite(instances: int, n_range: tuple[int, int],
                  r: float, seed: int) -> SuiteReport:
    """Every oracle-found satisfying assignment must satisfy the 2-SAT
    formula it induces, and every sub-clause event of its formula must be
    sound (events_sound).

    The events are checked once per satisfiable instance, and each
    solution's check holds only if they are sound, so an unsound event
    falsifies every solution of its instance."""
    if n_range[1] > ORACLE_MAX_VARS:
        raise GuardrailError(f"theorem's oracle is capped at n <= {ORACLE_MAX_VARS}")
    report = SuiteReport("theorem", instances)
    for i, n, r, f_seed, f in _instances(random.Random(seed), instances, n_range, (r,), seed):
        solutions = solve_exhaustive(f, cap=SOLUTIONS_PER_INSTANCE)
        if not solutions:
            report.skipped += 1
            continue
        space = build_space(f)
        sound = events_sound(space, space.events())
        for a in solutions:
            report.record(sound and verify_theorem(f, a, space).holds, f_seed, i, n, r, a)
    report.details = {"satisfiable_instances": instances - report.skipped}
    return report


def corollary1_suite(instances: int, n_range: tuple[int, int],
                     r: float, seed: int) -> SuiteReport:
    """Every complete non-satisfying assignment must leave an activated
    sub-clause unsolved. It calls no oracle (a check is an evaluation), so
    it runs at every n `verify` accepts."""
    rng = random.Random(seed)
    report = SuiteReport("corollary1", instances,
                         details={"satisfying_assignments_resampled": 0})
    for i, n, r, f_seed, f in _instances(rng, instances, n_range, (r,), seed, sizes_first=True):
        space = build_space(f)
        produced = attempt = 0
        while produced < ASSIGNMENTS_PER_INSTANCE and attempt < 50 * ASSIGNMENTS_PER_INSTANCE:
            attempt += 1
            a = random_assignment(n, seed=rng.getrandbits(32))
            try:
                cert = verify_corollary1(f, a, space=space)
            except HypothesisError:   # a satisfies f
                report.details["satisfying_assignments_resampled"] += 1
                continue
            produced += 1
            report.record(cert.holds, f_seed, i, n, r, a)
    return report


def twosat_oracle_suite(instances: int, n_range: tuple[int, int],
                        r: float, seed: int) -> SuiteReport:
    """solve_2sat must agree with exhaustive enumeration, and its returned
    assignments must satisfy the instance.

    The instances are width-2 formulas with n drawn from 2..min(n_range[1], 12)
    and clause ratios cycling through 0.8..2.0, the range where random 2-SAT
    turns from satisfiable to unsatisfiable (threshold 1). `r` is a 3-SAT
    ratio, far above that range, so it is ignored."""
    report = SuiteReport("2sat-oracle", instances, details={"satisfiable_instances": 0})
    for i, n, f_ratio, f_seed, f in _instances(random.Random(seed), instances,
                                               (2, min(n_range[1], 12)),
                                               (0.8, 1.0, 1.5, 2.0), seed, k=2):
        verdict = solve_2sat(f)
        oracle_sat = bool(solve_exhaustive(f, cap=1))
        violated = verdict.satisfiable and assignment_satisfies_2sat(f, verdict.assignment)
        report.record(verdict.satisfiable == oracle_sat and not violated,
                      f_seed, i, n, f_ratio, verdict.assignment)
        report.details["satisfiable_instances"] += verdict.satisfiable and oracle_sat
    return report


def merge_equivalence_suite(instances: int, n_range: tuple[int, int],
                            r: float, seed: int) -> SuiteReport:
    """Three views of one fact must agree for every instance and its random
    assignment: the merged implication graph is contradiction-free, the
    assignment satisfies its induced 2-SAT formula, and no activated
    sub-clause is left unsolved."""
    rng = random.Random(seed)
    report = SuiteReport("merge", instances, details={"consistent_pairs": 0})
    for i, n, r, f_seed, f in _instances(rng, instances, n_range, (r,), seed):
        space = build_space(f)
        hg = build_hypernodal(space)
        a = random_assignment(n, seed=rng.getrandbits(32))
        graph_verdict = find_contradictions(hg, a).consistent
        t = reduce_to_2sat(space, f, a)
        sat_verdict = not assignment_satisfies_2sat(t, a)
        unsolved_verdict = not space.unsolved(a)
        report.record(graph_verdict == sat_verdict == unsolved_verdict, f_seed, i, n, r, a)
        report.details["consistent_pairs"] += graph_verdict
    return report


def sandwich_suite(instances: int, n_range: tuple[int, int],
                   r: float, seed: int) -> SuiteReport:
    """Per-literal activation totals must lie between the thresholds, and the
    distinct activated count can never exceed the maximum. The distinct count
    dropping below the minimum is possible (shared sub-clauses) and is
    reported, not failed.

    For a complete assignment these inequalities hold by arithmetic: the
    total picks one of each variable's two created counts, and the distinct
    count is at most the total. So the suite catches a fault only in
    thresholds, subclause_total or subclause_count themselves."""
    rng = random.Random(seed)
    report = SuiteReport("sandwich", instances, details={"distinct_below_minimum": 0})
    for i, n, r, f_seed, f in _instances(rng, instances, n_range, (r,), seed):
        space = build_space(f)
        th = thresholds(space)
        a = random_assignment(n, seed=rng.getrandbits(32))
        total = subclause_total(space, a)
        distinct = subclause_count(space, a)
        report.record(th.minimum <= total <= th.maximum and distinct <= th.maximum
                      and th.minimum <= th.maximum, f_seed, i, n, r, a)
        report.details["distinct_below_minimum"] += distinct < th.minimum
    return report


def census_suite(instances: int, n_range: tuple[int, int],
                 r: float, seed: int) -> SuiteReport:
    """|S| never exceeds min(3m, 2n(n-1)) on generated instances.

    Without deduplication |S| would be 3m, which exceeds 2n(n-1) only where
    3r > 2(n - 1). So the suite catches a space that keeps duplicate
    sub-clauses only at small n: n <= 7 at r = 4.25, 143 of the 500 checks
    of a default `verify` run."""
    report = SuiteReport("census", instances)
    for i, n, r, f_seed, f in _instances(random.Random(seed), instances, n_range, (r,), seed):
        census = space_census(build_space(f))
        report.record(census.actual <= min(census.per_clause_bound, census.possible),
                      f_seed, i, n, r, None)
    return report


# Every suite takes (instances, n_range, r, seed), with no defaults: the
# `verify` command's options are the one source of them.
SUITES = {
    "theorem": theorem_suite,
    "corollary1": corollary1_suite,
    "2sat-oracle": twosat_oracle_suite,
    "merge": merge_equivalence_suite,
    "sandwich": sandwich_suite,
    "census": census_suite,
}
