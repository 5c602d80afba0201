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
from .formula import (ORACLE_MAX_VARS, GuardrailError, evaluate,
                      random_formula, solve_exhaustive)
from .hypernodal import build_hypernodal, find_contradictions
from .reduction import (TwoSatFormula, assignment_satisfies_2sat, reduce_to_2sat,
                        solve_2sat, verify_corollary1, verify_theorem)
from .subclauses import build_space, space_census


@dataclass
class SuiteReport:
    suite: str
    instances: int
    checks: int
    falsifications: int
    skipped: int = 0          # instances where the hypothesis never applied
    details: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.falsifications == 0

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
    checks = falsifications = satisfiable = 0
    for i, n in enumerate(_instance_sizes(rng, n_range, instances)):
        f = random_formula(n, r, seed=seed + 7919 * (i + 1))
        solutions = solve_exhaustive(f, cap=cap)
        if not solutions:
            continue
        satisfiable += 1
        space = build_space(f)
        for a in solutions:
            cert = verify_theorem(f, a, space=space)
            checks += 1
            if not cert.holds:
                falsifications += 1
    return SuiteReport(suite="theorem", instances=instances, checks=checks,
                       falsifications=falsifications,
                       skipped=instances - satisfiable,
                       details={"satisfiable_instances": satisfiable})


def corollary1_suite(instances: int = 500, n_range: tuple[int, int] = (6, 12),
                     r: float = 4.25, seed: int = 1,
                     assignments_per_instance: int = 10) -> SuiteReport:
    """Every complete non-satisfying assignment must leave an activated
    sub-clause unsolved."""
    _check_n(n_range[1])
    rng = random.Random(seed)
    checks = falsifications = resampled = 0
    for i, n in enumerate(_instance_sizes(rng, n_range, instances)):
        f = random_formula(n, r, seed=seed + 7919 * (i + 1))
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
                falsifications += 1
    return SuiteReport(suite="corollary1", instances=instances, checks=checks,
                       falsifications=falsifications,
                       details={"satisfying_assignments_resampled": resampled})


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
    checks = falsifications = sat_count = 0
    ratios = (0.8, 1.0, 1.5, 2.0)
    for i in range(instances):
        n = rng.randint(2, max_n)
        f = random_formula(n, ratios[i % len(ratios)], seed=seed + 7919 * (i + 1), k=2)
        t = TwoSatFormula.from_formula(f)
        verdict = solve_2sat(t)
        oracle_sat = bool(solve_exhaustive(f, cap=1))
        checks += 1
        if verdict.satisfiable != oracle_sat:
            falsifications += 1
            continue
        if verdict.satisfiable:
            sat_count += 1
            if assignment_satisfies_2sat(t, verdict.assignment):
                falsifications += 1
    return SuiteReport(suite="2sat-oracle", instances=instances, checks=checks,
                       falsifications=falsifications,
                       details={"satisfiable_instances": sat_count})


def merge_equivalence_suite(instances: int = 500, n_range: tuple[int, int] = (6, 16),
                            r: float = 4.25, seed: int = 1) -> SuiteReport:
    """Three views of one fact must agree for every instance and its random
    assignment: the merged implication graph is contradiction-free, the
    assignment satisfies its induced 2-SAT formula, and no activated
    sub-clause is left unsolved."""
    rng = random.Random(seed)
    checks = disagreements = consistent_count = 0
    for i in range(instances):
        n = rng.randint(*n_range)
        f = random_formula(n, r, seed=seed + 7919 * (i + 1))
        space = build_space(f)
        hg = build_hypernodal(space)
        a = random_assignment(n, seed=rng.getrandbits(32))
        graph_verdict = find_contradictions(hg, a).consistent
        t = reduce_to_2sat(space, f, a)
        sat_verdict = not assignment_satisfies_2sat(t, a)
        activated = space.activated(a)
        unsolved_verdict = all(space.pairs[sid][0] in a or space.pairs[sid][1] in a
                               for sid in activated)
        checks += 1
        if graph_verdict:
            consistent_count += 1
        if not (graph_verdict == sat_verdict == unsolved_verdict):
            disagreements += 1
    return SuiteReport(suite="merge", instances=instances, checks=checks,
                       falsifications=disagreements,
                       details={"consistent_pairs": consistent_count})


def sandwich_suite(instances: int = 1000, n_range: tuple[int, int] = (6, 24),
                   r: float = 4.25, seed: int = 1) -> SuiteReport:
    """Per-literal activation totals must lie between the thresholds, and the
    distinct activated count can never exceed the maximum. The distinct count
    dropping below the minimum is possible (shared sub-clauses) and is
    reported, not failed."""
    rng = random.Random(seed)
    checks = falsifications = distinct_below_minimum = 0
    for i in range(instances):
        n = rng.randint(*n_range)
        f = random_formula(n, r, seed=seed + 7919 * (i + 1))
        space = build_space(f)
        th = thresholds(space)
        a = random_assignment(n, seed=rng.getrandbits(32))
        total = subclause_total(space, a)
        distinct = subclause_count(space, a)
        checks += 1
        if not (th.minimum <= total <= th.maximum and distinct <= th.maximum
                and th.minimum <= th.maximum):
            falsifications += 1
        if distinct < th.minimum:
            distinct_below_minimum += 1
    return SuiteReport(suite="sandwich", instances=instances, checks=checks,
                       falsifications=falsifications,
                       details={"distinct_below_minimum": distinct_below_minimum})


def census_suite(instances: int = 200, n_range: tuple[int, int] = (4, 40),
                 r: float = 4.25, seed: int = 1) -> SuiteReport:
    """|S| never exceeds min(3m, 2n(n-1)) on generated instances."""
    rng = random.Random(seed)
    checks = falsifications = 0
    for i in range(instances):
        n = rng.randint(*n_range)
        f = random_formula(n, r, seed=seed + 7919 * (i + 1))
        space = build_space(f)
        census = space_census(space, f)
        checks += 1
        if census.actual > min(census.per_clause_bound, census.possible):
            falsifications += 1
    return SuiteReport(suite="census", instances=instances, checks=checks,
                       falsifications=falsifications)


# Every suite takes (instances, n_range, r, seed).
SUITES = {
    "theorem": theorem_suite,
    "corollary1": corollary1_suite,
    "2sat-oracle": twosat_oracle_suite,
    "merge": merge_equivalence_suite,
    "sandwich": sandwich_suite,
    "census": census_suite,
}
