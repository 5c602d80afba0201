"""Sub-clause thresholds, assignment generators, unsolved-sub-clause curves
and excluded-literal extraction.
"""

from __future__ import annotations

import heapq
import operator
import random
from typing import NamedTuple

from .formula import (Assignment, Formula, Literal, _csv_text, check_consistent,
                      literal_str)
from .subclauses import SubClauseSpace

# Each heuristic scores a literal as a weighted sum of the sub-clauses it
# creates and solves: (created weight, solved weight).
_WEIGHTS = {
    "minCreate": (-1, 0),
    "minCreateMaxSolve": (-1, 1),
    "maxSolve": (0, 1),
    "maxCreate": (1, 0),
}
HEURISTICS = tuple(_WEIGHTS)
TIE_BREAKS = ("true", "false")

# The name minCreateMaxSolve is honored as argmax(|solved| - |created|);
# picking the lesser difference would maximize production over consumption.
MIN_CREATE_MAX_SOLVE_READING = "argmax(|subsat| - |created|)"


class Thresholds(NamedTuple):
    """Per-variable sums of the smaller/larger created-sub-clause counts.

    minimum <= maximum always, and for any complete assignment the total
    number of sub-clause activations (counted per literal, see
    subclause_total) lies between the two.
    """

    minimum: int
    maximum: int


def thresholds(space: SubClauseSpace) -> Thresholds:
    created = [len(ids) for ids in space.created_by]
    per_variable = list(zip(created[0::2], created[1::2]))
    return Thresholds(minimum=sum(map(min, per_variable)),
                      maximum=sum(map(max, per_variable)))


def subclause_count(space: SubClauseSpace, a: Assignment) -> int:
    """Number of distinct sub-clauses activated by the assignment."""
    a = check_consistent(a)
    return len(space.activated(a))


def subclause_total(space: SubClauseSpace, a: Assignment) -> int:
    """Total activations counted per literal (shared sub-clauses counted once
    per creating literal). This is the count bounded by the thresholds; the
    distinct count can fall below the minimum when literals of different
    variables create the same sub-clause."""
    a = check_consistent(a)
    return sum(len(space.created_by[lit]) for lit in a)


def consumption_rate(space: SubClauseSpace, a: Assignment) -> float:
    """Distinct activated sub-clauses per assigned literal."""
    a = check_consistent(a)
    if not a:
        raise ValueError("consumption rate of an empty assignment")
    return subclause_count(space, a) / len(a)


def _prefer(tie_break: str) -> bool:
    if tie_break not in TIE_BREAKS:
        raise ValueError(f"unknown tie-break {tie_break!r}, expected one of {TIE_BREAKS}")
    return tie_break == "true"


def _by_polarity(n: int, score, prefer_true: bool) -> Assignment:
    """For each variable the literal with the higher score, ties to the
    preferred polarity. score holds one value per literal code."""
    wins = operator.ge if prefer_true else operator.gt
    return frozenset(pos if wins(score[pos], score[pos + 1]) else pos + 1
                     for pos in range(0, 2 * n, 2))


def generate_heuristic(space: SubClauseSpace, kind: str, tie_break: str = "true") -> Assignment:
    """One literal per variable by comparing created/solved sub-clause counts.

    minCreate picks the literal creating the fewest sub-clauses, maxCreate the
    most, maxSolve the literal contained in the most, and minCreateMaxSolve
    maximizes solved-minus-created. Ties go to the preferred polarity.
    """
    if kind not in HEURISTICS:
        raise ValueError(f"unknown heuristic {kind!r}, expected one of {HEURISTICS}")
    prefer_true = _prefer(tie_break)
    created_weight, solved_weight = _WEIGHTS[kind]
    score = [created_weight * len(created) for created in space.created_by]
    if solved_weight:
        score = [s + solved_weight * solved for s, solved in zip(score, space.solved_count)]
    return _by_polarity(space.n, score, prefer_true)


def generate_greedy(f: Formula, tie_break: str = "true", dynamic: bool = False) -> Assignment:
    """Greedy baseline over per-literal clause-satisfaction counts.

    The default scores each literal by the number of clauses containing it and
    picks the better polarity per variable. With dynamic=True the counts are
    recomputed over still-unsatisfied clauses and the globally best literal is
    fixed first (hill-climbing construction); that variant satisfies
    noticeably more clauses than the plain counts.

    The dynamic variant is a bucket queue (Dial 1969) of rank heaps indexed by
    count: O((n + km) log n) for m width-k clauses, since a literal moves down
    at most once per unit of its starting count. Once the top count is 0 no
    unfixed literal is in an unsatisfied clause, and every remaining variable
    takes the preferred polarity.
    """
    prefer_true = _prefer(tie_break)
    occurrences = f.occurrences()
    counts = [len(cids) for cids in occurrences]
    if not dynamic:
        return _by_polarity(f.n, counts, prefer_true)

    # Each step fixes the literal with the largest key (count, preferred, -v).
    # A literal's one entry is its rank (preferred polarities first, then by
    # variable) in a bucket at or above its count; popped stale, it moves down.
    preferred_bit = 0 if prefer_true else 1
    ranked = [2 * v + bit for bit in (preferred_bit, 1 - preferred_bit) for v in range(f.n)]
    top = max(counts, default=0)
    buckets: list[list[int]] = [[] for _ in range(top + 1)]
    for rank, lit in enumerate(ranked):
        buckets[counts[lit]].append(rank)   # ascending, so already a heap
    clauses, pop, push = f.clauses, heapq.heappop, heapq.heappush
    clause_satisfied, fixed, out = [False] * f.m, [False] * f.n, []
    while top:
        bucket = buckets[top]
        if not bucket:
            top -= 1
            continue
        rank = pop(bucket)
        lit = ranked[rank]
        if fixed[lit >> 1]:
            continue
        if counts[lit] < top:
            push(buckets[counts[lit]], rank)
            continue
        fixed[lit >> 1] = True
        out.append(lit)
        for cid in occurrences[lit]:
            if not clause_satisfied[cid]:
                clause_satisfied[cid] = True
                for other in clauses[cid]:
                    counts[other] -= 1
    out.extend(2 * v + preferred_bit for v in range(f.n) if not fixed[v])
    return frozenset(out)


def random_assignment(n: int, seed: int) -> Assignment:
    """Independent fair coin per variable (Mersenne Twister, seeded)."""
    getrandbits = random.Random(seed).getrandbits
    # 2v + 1 is -x_v, the literal of a 1 bit.
    return frozenset([2 * v + getrandbits(1) for v in range(n)])


class CurveStep(NamedTuple):
    step: int            # 1-based position in the assignment order
    literal: Literal
    activated: int       # distinct sub-clauses activated so far
    satisfied: int       # activated sub-clauses already solved
    open: int            # activated - satisfied


class CurveSeries(NamedTuple):
    steps: tuple[CurveStep, ...]
    inflection: int      # first step at which `open` attains its series maximum

    def open_values(self) -> list[int]:
        return [s.open for s in self.steps]

    def to_csv(self) -> str:
        return _csv_text(["step", "literal", "activated", "satisfied", "open"],
                         ([s.step, literal_str(s.literal), s.activated, s.satisfied, s.open]
                          for s in self.steps))


def unsolved_curve(space: SubClauseSpace, order) -> CurveSeries:
    """Walk the assignment `order` lists, literal by literal, tracking how
    many activated sub-clauses are still unsolved after each step. An order
    that lists a literal twice, or both literals of a variable, is refused.

    A sub-clause is open from the step that first activates it until the
    first step that assigns one of its literals; one that the activating
    step or an earlier one solves never opens."""
    order = list(order)
    if len(check_consistent(order)) != len(order):
        raise ValueError("order lists a literal twice")
    never = len(order) + 1   # the step of an unassigned literal
    step_of = [never] * (2 * space.n)
    for step, lit in enumerate(order, start=1):
        step_of[lit] = step
    closing = [0] * (never + 1)   # per step, the open sub-clauses it solves
    pairs, created_by = space.pairs, space.created_by
    activated: set[int] = set()
    opened = closed = 0
    steps = []
    for step, lit in enumerate(order, start=1):
        closed += closing[step]
        for sid in created_by[lit]:
            if sid in activated:
                continue
            activated.add(sid)
            p, q = pairs[sid]
            solved = min(step_of[p], step_of[q])
            if solved > step:
                opened += 1
                closing[solved] += 1
        unsolved = opened - closed
        steps.append(CurveStep(step, lit, len(activated), len(activated) - unsolved, unsolved))
    if not steps:
        return CurveSeries(steps=(), inflection=0)
    peak = max(s.open for s in steps)
    inflection = next(s.step for s in steps if s.open == peak)
    return CurveSeries(steps=tuple(steps), inflection=inflection)


class ExclusionReport(NamedTuple):
    unsolved: frozenset[int]      # activated sub-clauses no assigned literal solves
    excluded: frozenset[Literal]  # assignment literals that created them
    allowed: frozenset[Literal]   # the rest of the assignment


def excluded_literals(space: SubClauseSpace, a: Assignment) -> ExclusionReport:
    """Split an assignment into literals that created unsolved sub-clauses
    and the rest. Satisfying assignments exclude nothing."""
    a = check_consistent(a)
    unsolved = frozenset(space.unsolved(a))
    excluded = frozenset(lit for lit in a if not unsolved.isdisjoint(space.created_by[lit]))
    return ExclusionReport(unsolved=unsolved, excluded=excluded, allowed=frozenset(a - excluded))
