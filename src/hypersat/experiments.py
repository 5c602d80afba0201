"""Batch experiments: satisfied-fraction comparison of assignment generators
and the unsolved-sub-clause curve with its inflection step.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field

from .assignments import (HEURISTICS, generate_greedy, generate_heuristic,
                          random_assignment, subclause_count, thresholds, unsolved_curve)
from .formula import (Assignment, Formula, GuardrailError, _csv_text, evaluate,
                      random_formula, var_of)
from .subclauses import SubClauseSpace, build_space

EXPERIMENT_MAX_VARS = 2000

GENERATORS = HEURISTICS + ("greedy", "greedyDynamic", "random")

# Order in which generators are tried when hunting for satisfying assignments.
# "greedy" is left out: random_formula never repeats a clause, and without a
# repeated clause static greedy picks what minCreate picks, which was tried first.
SATISFYING_POOL = ("minCreate", "minCreateMaxSolve", "maxSolve", "greedyDynamic")


def generate_assignment(name: str, f: Formula, space: SubClauseSpace,
                        seed: int = 0, tie_break: str = "true") -> Assignment:
    if name in HEURISTICS:
        return generate_heuristic(space, name, tie_break=tie_break)
    if name == "greedy":
        return generate_greedy(f, tie_break=tie_break)
    if name == "greedyDynamic":
        return generate_greedy(f, tie_break=tie_break, dynamic=True)
    if name == "random":
        return random_assignment(f.n, seed=seed)
    raise ValueError(f"unknown generator {name!r}, expected one of {GENERATORS}")


@dataclass
class InstanceRecord:
    instance: int
    seed: int
    generator: str
    fraction: float
    subclause_count: int
    minimum_threshold: int
    maximum_threshold: int
    inflection: int


@dataclass
class ExperimentSummary:
    n: int
    r: float
    records: list[InstanceRecord] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        """The records with the mean and population standard deviation of the
        satisfied fraction per generator, computed from them."""
        by_gen: dict[str, list[float]] = {}
        for rec in self.records:
            by_gen.setdefault(rec.generator, []).append(rec.fraction)
        return {
            "n": self.n,
            "r": self.r,
            "means": {g: statistics.fmean(v) for g, v in by_gen.items()},
            "stdevs": {g: (statistics.pstdev(v) if len(v) > 1 else 0.0)
                       for g, v in by_gen.items()},
            "records": [vars(rec) for rec in self.records],
        }

    def to_csv(self) -> str:
        return _csv_text(["instance", "seed", "generator", "fraction", "subclause_count",
                          "minimum_threshold", "maximum_threshold", "inflection"],
                         ([rec.instance, rec.seed, rec.generator, f"{rec.fraction:.6f}",
                           rec.subclause_count, rec.minimum_threshold,
                           rec.maximum_threshold, rec.inflection] for rec in self.records))


def run_fraction_experiment(n: int = 500, r: float = 4.25, count: int = 100,
                            generators=("minCreateMaxSolve", "greedy", "random"),
                            seed: int = 1, tie_break: str = "true",
                            with_curves: bool = False) -> ExperimentSummary:
    """Mean satisfied fraction per generator over `count` fresh instances."""
    if n > EXPERIMENT_MAX_VARS:
        raise GuardrailError(f"experiments are capped at n <= {EXPERIMENT_MAX_VARS}")
    for g in generators:
        if g not in GENERATORS:
            raise ValueError(f"unknown generator {g!r}, expected one of {GENERATORS}")
    summary = ExperimentSummary(n=n, r=r)
    for i in range(count):
        inst_seed = seed + i
        f = random_formula(n, r, seed=inst_seed)
        space = build_space(f)
        th = thresholds(space)
        for g in generators:
            a = generate_assignment(g, f, space, seed=inst_seed * 31 + 7, tie_break=tie_break)
            report = evaluate(f, a)
            inflection = 0
            if with_curves:
                inflection = unsolved_curve(space, a, sorted(a, key=var_of)).inflection
            summary.records.append(InstanceRecord(
                instance=i, seed=inst_seed, generator=g, fraction=report.fraction,
                subclause_count=subclause_count(space, a),
                minimum_threshold=th.minimum, maximum_threshold=th.maximum,
                inflection=inflection))
    return summary


@dataclass
class CurveExperiment:
    n: int
    r: float
    method: str
    accepted: list[dict] = field(default_factory=list)   # seed, generator, inflection
    seeds_scanned: int = 0
    mean_inflection: float = 0.0
    mean_curve: list[float] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "r": self.r,
            "method": self.method,
            "instances": len(self.accepted),
            "seeds_scanned": self.seeds_scanned,
            "mean_inflection": self.mean_inflection,
            "mean_curve_inflection": (self.mean_curve.index(max(self.mean_curve)) + 1
                                      if self.mean_curve else 0),
            "accepted": self.accepted,
            "mean_curve": self.mean_curve,
        }

    def to_csv(self) -> str:
        return _csv_text(["step", "mean_open"],
                         ([step, f"{value:.4f}"]
                          for step, value in enumerate(self.mean_curve, start=1)))


def run_curve_experiment(n: int = 100, r: float = 2.5, instances: int = 120,
                         seed: int = 1, max_seeds: int = 20000) -> CurveExperiment:
    """Unsolved-sub-clause curves over satisfiable instances.

    The exhaustive oracle cannot reach n = 100, so instances are generated at
    a ratio where the bundled assignment generators find satisfying
    assignments, and only instances they satisfy are kept. The curve walks
    the satisfying assignment in variable-index order; its inflection is the
    first step at which the open count peaks.
    """
    if n > EXPERIMENT_MAX_VARS:
        raise GuardrailError(f"experiments are capped at n <= {EXPERIMENT_MAX_VARS}")
    method = (f"accepted instances are those satisfied by one of {SATISFYING_POOL}; "
              f"curve order: ascending variable index")
    result = CurveExperiment(n=n, r=r, method=method)
    sums = [0.0] * n
    inflections = []
    current = seed
    while len(result.accepted) < instances and result.seeds_scanned < max_seeds:
        f = random_formula(n, r, seed=current)
        current += 1
        result.seeds_scanned += 1
        space = build_space(f)
        satisfying = None
        used = None
        for g in SATISFYING_POOL:
            a = generate_assignment(g, f, space)
            if not evaluate(f, a).unsatisfied_ids:
                satisfying, used = a, g
                break
        if satisfying is None:
            continue
        curve = unsolved_curve(space, satisfying, sorted(satisfying, key=var_of))
        inflections.append(curve.inflection)
        for idx, value in enumerate(curve.open_values()):
            sums[idx] += value
        result.accepted.append({"seed": current - 1, "generator": used,
                                "inflection": curve.inflection})
    if inflections:
        result.mean_inflection = statistics.fmean(inflections)
        result.mean_curve = [s / len(inflections) for s in sums]
    return result
