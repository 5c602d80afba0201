"""The 2-literal sub-clause space of a width-3 formula.

Assigning a literal `a` reduces every clause that contains -a to the
2-literal sub-clause left after removing -a. The space collects all such
pairs (deduplicated), remembering for each one which literals create it and
which clauses it derives from.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .formula import (Clause, Formula, GuardrailError, Literal, _csv_text, literal_str,
                      negate, var_of)

Pair = tuple[int, int]

# Guardrail for the dense interaction matrix: |S| x 2n cells.
MATRIX_MAX_CELLS = 10**7


def literal_columns(n: int) -> list[Literal]:
    """All 2n literals in display order -x0, x0, -x1, x1, ..."""
    cols: list[Literal] = []
    for v in range(n):
        cols.append(2 * v + 1)
        cols.append(2 * v)
    return cols


@dataclass
class SubClauseSpace:
    """Deduplicated sub-clause set with the events that created it.

    Ids follow first-encounter order in a clause-order scan of the formula;
    use id_of() to locate a sub-clause by its literal pair. The scan removes
    each literal of clause cid in turn: the j-th removal is event 3*cid + j,
    with parent clause cid and creator the negation of the removed literal.
    Each sub-clause's events form a chain in scan order, from
    first_event[sid] along next_event to -1. Those chains are the only record
    of provenance; events_of, creators_of and parents_of read them.
    created_by and containing hold one list per literal code.
    """

    n: int
    clauses: tuple[Clause, ...]
    pairs: list[Pair]
    index: dict[Pair, int]
    first_event: list[int]
    next_event: list[int]
    # ids each literal creates, each id once, in first-creation order
    created_by: list[list[int]]
    # ids of the sub-clauses containing each literal, ascending
    containing: list[list[int]]

    def __len__(self) -> int:
        return len(self.pairs)

    def id_of(self, pair) -> int:
        key = tuple(sorted(pair, key=var_of))
        if key not in self.index:
            raise KeyError(f"no sub-clause ({literal_str(key[0])} v {literal_str(key[1])})")
        return self.index[key]

    def pair_str(self, sid: int) -> str:
        a, b = self.pairs[sid]
        return f"({literal_str(a)} v {literal_str(b)})"

    def _check_id(self, sid: int) -> None:
        if not 0 <= sid < len(self.pairs):
            raise KeyError(f"unknown sub-clause id {sid}")

    def subclauses_of(self, a: Literal) -> set[int]:
        """Ids activated by assigning a: reductions of the clauses containing -a."""
        return set(self.created_by[a])

    def subsat(self, a: Literal) -> set[int]:
        """Ids of the sub-clauses solved by a: those containing it."""
        return set(self.containing[a])

    def events_of(self, sid: int) -> list[tuple[Literal, int]]:
        """The (creator, parent clause) events of sub-clause sid, in scan order."""
        self._check_id(sid)
        events = []
        event = self.first_event[sid]
        while event >= 0:
            parent, position = divmod(event, 3)
            events.append((negate(self.clauses[parent][position]), parent))
            event = self.next_event[event]
        return events

    def creators_of(self, ids) -> set[Literal]:
        return {creator for sid in ids for creator, _ in self.events_of(sid)}

    def parents_of(self, ids) -> set[int]:
        return {parent for sid in ids for _, parent in self.events_of(sid)}

    def activated(self, assignment) -> set[int]:
        """Union of subclauses_of(a) over the assignment."""
        out: set[int] = set()
        for a in assignment:
            out.update(self.created_by[a])
        return out

    def unsolved(self, assignment) -> list[int]:
        """Ids the assignment activates but does not solve, ascending: neither
        literal of the sub-clause is assigned."""
        pairs = self.pairs
        return sorted(sid for sid in self.activated(assignment)
                      if pairs[sid][0] not in assignment and pairs[sid][1] not in assignment)


def build_space(f: Formula) -> SubClauseSpace:
    """Scan clauses in order; for each literal l of each clause insert
    clause minus {l} as a sub-clause created by negate(l)."""
    if f.width != 3:
        raise ValueError(f"sub-clause space is defined for width-3 formulas, got width {f.width}")
    pairs: list[Pair] = []
    index: dict[Pair, int] = {}
    first_event: list[int] = []
    last_event: list[int] = []   # per id, the end of its chain while scanning
    next_event: list[int] = []
    created_by: list[list[int]] = [[] for _ in range(2 * f.n)]
    containing: list[list[int]] = [[] for _ in range(2 * f.n)]
    for a, b, c in f.clauses:
        # negate(l) is l ^ 1, inlined in this loop, the hottest of the scan.
        for pair, creator in (((b, c), a ^ 1), ((a, c), b ^ 1), ((a, b), c ^ 1)):
            event = len(next_event)
            next_event.append(-1)
            sid = index.get(pair)
            if sid is None:
                sid = index[pair] = len(pairs)
                pairs.append(pair)
                first_event.append(event)
                last_event.append(event)
                containing[pair[0]].append(sid)
                containing[pair[1]].append(sid)
            else:
                next_event[last_event[sid]] = event
                last_event[sid] = event
            created_by[creator].append(sid)
    if len(set(f.clauses)) < f.m:
        # A repeated clause repeats its events but creates nothing new.
        created_by = [list(dict.fromkeys(ids)) for ids in created_by]
    return SubClauseSpace(n=f.n, clauses=f.clauses, pairs=pairs, index=index,
                          first_event=first_event, next_event=next_event,
                          created_by=created_by, containing=containing)


@dataclass(frozen=True)
class SpaceCensus:
    possible: int        # 2n(n-1) distinct-variable literal pairs
    actual: int          # |S| after deduplication
    per_clause_bound: int  # 3m
    ratio: Fraction      # 3r / (2(n-1))


def space_census(space: SubClauseSpace, f: Formula) -> SpaceCensus:
    if f.n < 2:
        raise ValueError("census needs n >= 2")
    return SpaceCensus(
        possible=2 * f.n * (f.n - 1),
        actual=len(space),
        per_clause_bound=3 * f.m,
        ratio=Fraction(3 * f.m, f.n) / (2 * (f.n - 1)),
    )


@dataclass
class InteractionMatrix:
    """Row sid is sub-clause sid, columns the 2n literals; each cell says how
    the column literal relates to the row sub-clause: creates it ('c'),
    solves it ('s'), turns it into a unit clause (the remaining literal), or
    nothing.
    """

    columns: list[Literal]
    cells: list[list[str]]  # '' | 'c' | 's' | literal string

    def to_csv(self) -> str:
        return _csv_text(["subclause"] + [literal_str(lit) for lit in self.columns],
                         ([f"s{sid}"] + row for sid, row in enumerate(self.cells)))


def interaction_matrix(space: SubClauseSpace) -> InteractionMatrix:
    """The dense |S| x 2n matrix; refuses more than MATRIX_MAX_CELLS cells."""
    if len(space) * 2 * space.n > MATRIX_MAX_CELLS:
        raise GuardrailError(f"interaction matrix limited to {MATRIX_MAX_CELLS} cells, "
                             f"got {len(space)} sub-clauses x {2 * space.n} literals")
    columns = literal_columns(space.n)
    cells = []
    for sid in range(len(space)):
        p, q = space.pairs[sid]
        creators = space.creators_of((sid,))
        row = []
        for lit in columns:
            if lit in creators:
                row.append("c")
            elif lit == p or lit == q:
                row.append("s")
            elif negate(lit) == p:
                row.append(literal_str(q))
            elif negate(lit) == q:
                row.append(literal_str(p))
            else:
                row.append("")
        cells.append(row)
    return InteractionMatrix(columns=columns, cells=cells)
