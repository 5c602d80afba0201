"""Assignment-induced 3-SAT -> 2-SAT reduction, a linear-time 2-SAT
decision procedure, and machine checks of the reduction's guarantees:

* a satisfying assignment always satisfies the 2-SAT formula it induces;
* a non-satisfying complete assignment always leaves at least one activated
  sub-clause unsolved.
"""

from __future__ import annotations

from typing import NamedTuple

from .formula import (Assignment, Formula, Literal, check_consistent, evaluate,
                      make_literal, negate)
from .hypernodal import component_ids, conflicting_variables, implication_adjacency
from .subclauses import Pair, SubClauseSpace


class HypothesisError(ValueError):
    """A verification was invoked on inputs that do not meet its hypothesis.

    Distinct from a falsified claim: only the latter indicates a bug.
    """


def reduce_to_2sat(space: SubClauseSpace, f: Formula, a: Assignment) -> Formula:
    """Conjunction of the sub-clauses activated by each assigned literal, as a
    width-2 formula over f's variables in ascending sub-clause id order."""
    a = check_consistent(a)
    ids = sorted(space.activated(a))
    return Formula(n=f.n, clauses=tuple(map(space.pairs.__getitem__, ids)), width=2)


def events_sound(space: SubClauseSpace, events: list[list[tuple[Literal, int]]]) -> bool:
    """Whether every event of `events`, which is space.events(), is sound: a
    sub-clause is its parent clause minus the negation of its creator. No
    event depends on an assignment, so one call covers every assignment
    over the space's formula."""
    return all(set(pair) == set(space.clauses[parent]) - {negate(creator)}
               for pair, sid_events in zip(space.pairs, events)
               for creator, parent in sid_events)


class UnsoundEventError(AssertionError):
    """Some sub-clause event is not its parent clause minus the negation of
    its creator (events_sound)."""


def provenance(space: SubClauseSpace,
               a: Assignment) -> dict[Pair, tuple[tuple[Literal, int], ...]]:
    """Each clause of reduce_to_2sat(space, f, a), in its order, mapped to the
    (creator, parent clause) events that activate it under a. Raises
    UnsoundEventError when some event of the space is unsound."""
    a = check_consistent(a)
    events = space.events()
    if not events_sound(space, events):
        raise UnsoundEventError("a sub-clause event is not its parent clause minus "
                                "the negation of its creator")
    return {space.pairs[sid]: tuple(event for event in events[sid] if event[0] in a)
            for sid in sorted(space.activated(a))}


def _require_width_2(t: Formula) -> None:
    if t.width != 2:
        raise ValueError(f"expected a width-2 formula, got width {t.width}")


class TwoSatResult(NamedTuple):
    satisfiable: bool
    assignment: Assignment | None = None
    witness_variable: int | None = None   # variable whose two literals share an SCC


def solve_2sat(t: Formula) -> TwoSatResult:
    """Decide satisfiability of a width-2 formula via strongly connected
    components of the implication graph; unsatisfiable iff some variable's two
    literals are mutually reachable. A returned assignment is re-checked
    against t."""
    _require_width_2(t)
    comp = component_ids(implication_adjacency(t.n, t.clauses))
    conflicts = conflicting_variables(comp)
    if conflicts:
        return TwoSatResult(satisfiable=False, witness_variable=conflicts[0])
    # Components come out in reverse topological order, so the smaller comp id
    # is closer to a sink; taking that polarity keeps all implications inside.
    assignment = frozenset(
        make_literal(v) if comp[make_literal(v)] < comp[make_literal(v, True)]
        else make_literal(v, True)
        for v in range(t.n))
    violated = assignment_satisfies_2sat(t, assignment)
    if violated:
        raise AssertionError(f"2-SAT assignment construction violated {violated}")
    return TwoSatResult(satisfiable=True, assignment=assignment)


def assignment_satisfies_2sat(t: Formula, a: Assignment) -> list[Pair]:
    """Clause-by-clause check of a width-2 formula; returns the violated
    clauses (empty = holds)."""
    _require_width_2(t)
    a = check_consistent(a)
    return [pair for pair in t.clauses if pair[0] not in a and pair[1] not in a]


class TheoremCertificate(NamedTuple):
    holds: bool
    t_clause_count: int
    violated: tuple[Pair, ...]


def verify_theorem(f: Formula, a: Assignment, space: SubClauseSpace) -> TheoremCertificate:
    """Check that a satisfying assignment also satisfies its induced 2-SAT
    formula; `space` is f's sub-clause space. Raises HypothesisError when `a`
    does not satisfy f at all."""
    a = check_consistent(a)
    if evaluate(f, a).unsatisfied_ids:
        raise HypothesisError("assignment does not satisfy the formula")
    t = reduce_to_2sat(space, f, a)
    violated = tuple(assignment_satisfies_2sat(t, a))
    return TheoremCertificate(holds=not violated, t_clause_count=t.m, violated=violated)


class Corollary1Certificate(NamedTuple):
    holds: bool
    witnesses: tuple[int, ...]           # activated-but-unsolved sub-clause ids
    unsatisfied_clauses: tuple[int, ...]


def verify_corollary1(f: Formula, a: Assignment,
                      space: SubClauseSpace) -> Corollary1Certificate:
    """Check that a complete non-satisfying assignment leaves at least one
    activated sub-clause unsolved; `space` is f's sub-clause space."""
    a = check_consistent(a)
    report = evaluate(f, a)
    if not report.unsatisfied_ids:
        raise HypothesisError("assignment satisfies the formula")
    witnesses = tuple(space.unsolved(a))
    return Corollary1Certificate(holds=bool(witnesses), witnesses=witnesses,
                                 unsatisfied_clauses=report.unsatisfied_ids)

