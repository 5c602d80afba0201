"""Oracle-driven verification suites.

Every suite generates fresh random instances, pits the claim under test
against the exhaustive oracle (or an exhaustive 2-SAT enumeration), and
reports hypothesis failures separately from falsifications: only a
falsification means the claim (or the code) is wrong.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .assignments import random_assignment, subclause_count, subclause_total, thresholds
from .formula import (ORACLE_MAX_VARS, Assignment, GuardrailError, evaluate, literal_str,
                      random_formula, solve_exhaustive, var_of)
from .hypernodal import build_hypernodal, find_contradictions
from .reduction import (TwoSatFormula, assignment_satisfies_2sat, reduce_to_2sat,
                        solve_2sat, verify_corollary1, verify_theorem)
from .subclauses import build_space, space_census


# Reproducers a report keeps; falsifications past these are only counted.
MAX_FAILURES = 10


def reproducer(suite: str, seed: int, instance: int, n: int, r: float,
               assignment: Assignment | None) -> dict:
    """What reproduces a falsification: instance `instance` of the suite is
    random_formula(n, r, seed), which `hypersat reduce --gen n,r,seed
    --assignment ...` regenerates for the width-3 suites; `assignment` is
    None where the check has none."""
    literals = None if assignment is None else [
        literal_str(lit) for lit in sorted(assignment, key=var_of)]
    return {"suite": suite, "seed": seed, "instance": instance, "n": n, "r": r,
            "assignment": literals}


@dataclass
class SuiteReport:
    suite: str
    instances: int
    checks: int
    falsifications: int
    skipped: int = 0          # instances where the hypothesis never applied
    details: dict = field(default_factory=dict)
    failures: list[dict] = field(default_factory=list)  # reproducer() of the first falsifications

    def __post_init__(self):
        self.failures = self.failures[:MAX_FAILURES]

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
        status = "ok" if self.ok else "FALSIFIED"
        return (f"suite {self.suite}: {self.checks} checks over {self.instances} instances, "
                f"{self.falsifications} falsifications, {self.skipped} skipped [{status}]")


def _check_n(n: int) -> None:
    if n > ORACLE_MAX_VARS:
        raise GuardrailError(f"oracle-backed suites are capped at n <= {ORACLE_MAX_VARS}")


def _instance_sizes(rng: random.Random, n_range: tuple[int, int], count: int) -> list[int]:
    lo, hi = n_range
    return [rng.randint(lo, hi) for _ in range(count)]


def theorem_suite(instances: int = 500, n_range: tuple[int, int] = (6, 12),
                  r: float = 4.25, seed: int = 1, cap: int = 10) -> SuiteReport:
    """Every oracle-found satisfying assignment must satisfy the 2-SAT
    formula it induces."""
    _check_n(n_range[1])
    rng = random.Random(seed)
    checks = satisfiable = 0
    failures = []
    for i, n in enumerate(_instance_sizes(rng, n_range, instances)):
        f_seed = seed + 7919 * (i + 1)
        f = random_formula(n, r, seed=f_seed)
        solutions = solve_exhaustive(f, cap=cap)
        if not solutions:
            continue
        satisfiable += 1
        space = build_space(f)
        for a in solutions:
            cert = verify_theorem(f, a, space=space)
            checks += 1
            if not cert.holds:
                failures.append(reproducer("theorem", f_seed, i, n, r, a))
    return SuiteReport(suite="theorem", instances=instances, checks=checks,
                       falsifications=len(failures),
                       skipped=instances - satisfiable,
                       details={"satisfiable_instances": satisfiable}, failures=failures)


def corollary1_suite(instances: int = 500, n_range: tuple[int, int] = (6, 12),
                     r: float = 4.25, seed: int = 1,
                     assignments_per_instance: int = 10) -> SuiteReport:
    """Every complete non-satisfying assignment must leave an activated
    sub-clause unsolved."""
    _check_n(n_range[1])
    rng = random.Random(seed)
    checks = resampled = 0
    failures = []
    for i, n in enumerate(_instance_sizes(rng, n_range, instances)):
        f_seed = seed + 7919 * (i + 1)
        f = random_formula(n, r, seed=f_seed)
        space = build_space(f)
        produced = 0
        attempt = 0
        while produced < assignments_per_instance and attempt < 50 * assignments_per_instance:
            attempt += 1
            a = random_assignment(n, seed=rng.getrandbits(32))
            if not evaluate(f, a).unsatisfied_ids:
                resampled += 1
                continue
            produced += 1
            cert = verify_corollary1(f, a, space=space)
            checks += 1
            if not cert.holds:
                failures.append(reproducer("corollary1", f_seed, i, n, r, a))
    return SuiteReport(suite="corollary1", instances=instances, checks=checks,
                       falsifications=len(failures),
                       details={"satisfying_assignments_resampled": resampled},
                       failures=failures)


def twosat_oracle_suite(instances: int = 500, n_range: tuple[int, int] = (6, 12),
                        r: float = 4.25, seed: int = 1) -> SuiteReport:
    """solve_2sat must agree with exhaustive enumeration, and its returned
    assignments must satisfy the instance.

    The instances are width-2 formulas with n drawn from 2..min(n_range[1], 12)
    and clause ratios cycling through 0.8..2.0, the range where random 2-SAT
    turns from satisfiable to unsatisfiable (threshold 1). `r` is a 3-SAT
    ratio, far above that range, so it is ignored."""
    max_n = min(n_range[1], 12)
    rng = random.Random(seed)
    checks = sat_count = 0
    failures = []
    ratios = (0.8, 1.0, 1.5, 2.0)
    for i in range(instances):
        n = rng.randint(2, max_n)
        f_seed, f_ratio = seed + 7919 * (i + 1), ratios[i % len(ratios)]
        f = random_formula(n, f_ratio, seed=f_seed, k=2)
        t = TwoSatFormula.from_formula(f)
        verdict = solve_2sat(t)
        oracle_sat = bool(solve_exhaustive(f, cap=1))
        checks += 1
        if verdict.satisfiable != oracle_sat or (
                verdict.satisfiable and assignment_satisfies_2sat(t, verdict.assignment)):
            failures.append(reproducer("2sat-oracle", f_seed, i, n, f_ratio, verdict.assignment))
        if verdict.satisfiable and oracle_sat:
            sat_count += 1
    return SuiteReport(suite="2sat-oracle", instances=instances, checks=checks,
                       falsifications=len(failures),
                       details={"satisfiable_instances": sat_count}, failures=failures)


def merge_equivalence_suite(instances: int = 500, n_range: tuple[int, int] = (6, 16),
                            r: float = 4.25, seed: int = 1) -> SuiteReport:
    """Three views of one fact must agree for every instance and its random
    assignment: the merged implication graph is contradiction-free, the
    assignment satisfies its induced 2-SAT formula, and no activated
    sub-clause is left unsolved."""
    rng = random.Random(seed)
    checks = consistent_count = 0
    failures = []
    for i in range(instances):
        n = rng.randint(*n_range)
        f_seed = seed + 7919 * (i + 1)
        f = random_formula(n, r, seed=f_seed)
        space = build_space(f)
        hg = build_hypernodal(space)
        a = random_assignment(n, seed=rng.getrandbits(32))
        graph_verdict = find_contradictions(hg, a).consistent
        t = reduce_to_2sat(space, f, a)
        sat_verdict = not assignment_satisfies_2sat(t, a)
        unsolved_verdict = not space.unsolved(a)
        checks += 1
        if graph_verdict:
            consistent_count += 1
        if not (graph_verdict == sat_verdict == unsolved_verdict):
            failures.append(reproducer("merge", f_seed, i, n, r, a))
    return SuiteReport(suite="merge", instances=instances, checks=checks,
                       falsifications=len(failures),
                       details={"consistent_pairs": consistent_count}, failures=failures)


def sandwich_suite(instances: int = 1000, n_range: tuple[int, int] = (6, 24),
                   r: float = 4.25, seed: int = 1) -> SuiteReport:
    """Per-literal activation totals must lie between the thresholds, and the
    distinct activated count can never exceed the maximum. The distinct count
    dropping below the minimum is possible (shared sub-clauses) and is
    reported, not failed."""
    rng = random.Random(seed)
    checks = distinct_below_minimum = 0
    failures = []
    for i in range(instances):
        n = rng.randint(*n_range)
        f_seed = seed + 7919 * (i + 1)
        f = random_formula(n, r, seed=f_seed)
        space = build_space(f)
        th = thresholds(space)
        a = random_assignment(n, seed=rng.getrandbits(32))
        total = subclause_total(space, a)
        distinct = subclause_count(space, a)
        checks += 1
        if not (th.minimum <= total <= th.maximum and distinct <= th.maximum
                and th.minimum <= th.maximum):
            failures.append(reproducer("sandwich", f_seed, i, n, r, a))
        if distinct < th.minimum:
            distinct_below_minimum += 1
    return SuiteReport(suite="sandwich", instances=instances, checks=checks,
                       falsifications=len(failures),
                       details={"distinct_below_minimum": distinct_below_minimum},
                       failures=failures)


def census_suite(instances: int = 200, n_range: tuple[int, int] = (4, 40),
                 r: float = 4.25, seed: int = 1) -> SuiteReport:
    """|S| never exceeds min(3m, 2n(n-1)) on generated instances."""
    rng = random.Random(seed)
    checks = 0
    failures = []
    for i in range(instances):
        n = rng.randint(*n_range)
        f_seed = seed + 7919 * (i + 1)
        f = random_formula(n, r, seed=f_seed)
        space = build_space(f)
        census = space_census(space, f)
        checks += 1
        if census.actual > min(census.per_clause_bound, census.possible):
            failures.append(reproducer("census", f_seed, i, n, r, None))
    return SuiteReport(suite="census", instances=instances, checks=checks,
                       falsifications=len(failures), failures=failures)


# Every suite takes (instances, n_range, r, seed).
SUITES = {
    "theorem": theorem_suite,
    "corollary1": corollary1_suite,
    "2sat-oracle": twosat_oracle_suite,
    "merge": merge_equivalence_suite,
    "sandwich": sandwich_suite,
    "census": census_suite,
}
