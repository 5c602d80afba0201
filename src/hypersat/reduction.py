"""Assignment-induced 3-SAT -> 2-SAT reduction, a linear-time 2-SAT
decision procedure, and machine checks of the reduction's guarantees:

* a satisfying assignment always satisfies the 2-SAT formula it induces;
* a non-satisfying complete assignment always leaves at least one activated
  sub-clause unsolved;
* a partial assignment that solves all of its activated sub-clauses but not
  the whole formula splits it into variable-disjoint parts.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import (Assignment, Formula, Literal, check_consistent, evaluate,
                      make_literal, negate, var_of)
from .hypernodal import component_ids, implication_adjacency
from .subclauses import Pair, SubClauseSpace


class HypothesisError(ValueError):
    """A verification was invoked on inputs that do not meet its hypothesis.

    Distinct from a falsified claim: only the latter indicates a bug.
    """


@dataclass(frozen=True)
class TwoSatFormula:
    """Width-2 formula with provenance back to the creating literal and
    parent 3-clause of every clause."""

    n: int
    clauses: tuple[Pair, ...]
    provenance: dict[Pair, tuple[tuple[Literal, int], ...]]

    @classmethod
    def from_formula(cls, f: Formula) -> TwoSatFormula:
        """A width-2 formula as it stands, with no provenance."""
        if f.width != 2:
            raise ValueError(f"expected a width-2 formula, got width {f.width}")
        return cls(n=f.n, clauses=f.clauses, provenance={c: () for c in f.clauses})

    @property
    def m(self) -> int:
        return len(self.clauses)

    def to_formula(self) -> Formula:
        return Formula(n=self.n, clauses=self.clauses, width=2)


def reduce_to_2sat(space: SubClauseSpace, f: Formula, a: Assignment) -> TwoSatFormula:
    """Conjunction of the sub-clauses activated by each assigned literal."""
    a = check_consistent(a)
    ids = sorted(space.activated(a))
    clauses = []
    provenance: dict[Pair, tuple[tuple[Literal, int], ...]] = {}
    for sid in ids:
        pair = space.pairs[sid]
        events = tuple((creator, parent) for creator, parent in space.events_of(sid)
                       if creator in a)
        for creator, parent in events:
            # Soundness: the sub-clause is its parent minus the creator's negation.
            assert set(pair) == set(f.clauses[parent]) - {negate(creator)}
        clauses.append(pair)
        provenance[pair] = events
    return TwoSatFormula(n=f.n, clauses=tuple(clauses), provenance=provenance)


@dataclass(frozen=True)
class TwoSatResult:
    satisfiable: bool
    assignment: Assignment | None = None
    witness_variable: int | None = None   # variable whose two literals share an SCC


def solve_2sat(t: TwoSatFormula) -> TwoSatResult:
    """Decide satisfiability via strongly connected components of the
    implication graph; unsatisfiable iff some variable's two literals are
    mutually reachable. A returned assignment is re-checked against t."""
    comp = component_ids(implication_adjacency(t.n, t.clauses))
    for v in range(t.n):
        if comp[make_literal(v)] == comp[make_literal(v, True)]:
            return TwoSatResult(satisfiable=False, witness_variable=v)
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


def assignment_satisfies_2sat(t: TwoSatFormula, a: Assignment) -> list[Pair]:
    """Clause-by-clause check; returns the violated clauses (empty = holds)."""
    a = check_consistent(a)
    return [pair for pair in t.clauses if pair[0] not in a and pair[1] not in a]


@dataclass(frozen=True)
class TheoremCertificate:
    holds: bool
    t_clause_count: int
    violated: tuple[Pair, ...]
    provenance_checked: int


def verify_theorem(f: Formula, a: Assignment, space: SubClauseSpace) -> TheoremCertificate:
    """Check that a satisfying assignment also satisfies its induced 2-SAT
    formula; `space` is f's sub-clause space. Raises HypothesisError when `a`
    does not satisfy f at all."""
    a = check_consistent(a)
    if evaluate(f, a).unsatisfied_ids:
        raise HypothesisError("assignment does not satisfy the formula")
    t = reduce_to_2sat(space, f, a)
    violated = tuple(assignment_satisfies_2sat(t, a))
    checked = sum(len(events) for events in t.provenance.values())
    return TheoremCertificate(holds=not violated, t_clause_count=t.m,
                              violated=violated, provenance_checked=checked)


@dataclass(frozen=True)
class Corollary1Certificate:
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


@dataclass(frozen=True)
class Decomposition:
    c1: tuple[int, ...]           # clause ids satisfied through the partial assignment
    c2: tuple[int, ...]           # the remaining clauses
    l1: frozenset[Literal]        # literal closure (literals and negations) of c1
    l2: frozenset[Literal]
    holds: bool                   # c2 avoids the assigned variables and l1 != l2


def _literal_closure(f: Formula, clause_ids) -> frozenset[Literal]:
    out: set[Literal] = set()
    for cid in clause_ids:
        for lit in f.clauses[cid]:
            out.add(lit)
            out.add(negate(lit))
    return frozenset(out)


def decompose(f: Formula, p: Assignment, space: SubClauseSpace) -> Decomposition:
    """Split a formula around a partial assignment that solves all of its
    activated sub-clauses but leaves some clause untouched; `space` is f's
    sub-clause space.

    Raises HypothesisError when p is complete, satisfies the whole formula,
    or leaves one of its own activated sub-clauses unsolved.
    """
    p = check_consistent(p)
    if len(p) >= f.n:
        raise HypothesisError("assignment is not partial")
    unsolved = space.unsolved(p)
    if unsolved:
        raise HypothesisError(
            "partial assignment leaves activated sub-clauses unsolved: "
            + ", ".join(space.pair_str(sid) for sid in unsolved))
    untouched = [cid for cid, clause in enumerate(f.clauses)
                 if not any(lit in p for lit in clause)]
    if not untouched:
        raise HypothesisError("partial assignment satisfies every clause")
    c1 = set(space.parents_of(space.activated(p)))
    c1 |= {cid for cid, clause in enumerate(f.clauses) if any(lit in p for lit in clause)}
    c2 = sorted(set(range(f.m)) - c1)
    assigned_vars = {var_of(lit) for lit in p}
    disjoint = all(var_of(lit) not in assigned_vars
                   for cid in c2 for lit in f.clauses[cid])
    l1 = _literal_closure(f, sorted(c1))
    l2 = _literal_closure(f, c2)
    return Decomposition(c1=tuple(sorted(c1)), c2=tuple(c2), l1=l1, l2=l2,
                         holds=disjoint and l1 != l2)
