"""The 2-literal sub-clause space of a width-3 formula.

Assigning a literal `a` reduces every clause that contains -a to the
2-literal sub-clause left after removing -a. The space stores all such pairs
(deduplicated) and the sub-clauses each literal creates. Its one derived
table, solved_count, counts per literal the sub-clauses that contain it;
SubClauseSpace.events() derives the clauses each sub-clause comes from.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .formula import Clause, Formula, GuardrailError, Literal, _csv_text, literal_str

Pair = tuple[int, int]

# Guardrail for the dense interaction matrix: |S| x 2n cells.
MATRIX_MAX_CELLS = 10**7


def literal_columns(n: int) -> list[Literal]:
    """All 2n literals in display order -x0, x0, -x1, x1, ...: column j holds
    literal j ^ 1, so literal l sits in column l ^ 1."""
    return [j ^ 1 for j in range(2 * n)]


class SubClauseSpace:
    """Deduplicated sub-clause set, with what each literal creates and solves.

    Ids follow first-encounter order in a clause-order scan of the formula.
    Stored: n, clauses, pairs (variable-ordered literal pairs, by id) and
    created_by (one list per literal code). solved_count is the one table
    derived from pairs, on first read, and then kept. Which events created a
    sub-clause follows from the clauses, so it is not stored: events()
    derives it.
    """

    def __init__(self, n: int, clauses: tuple[Clause, ...], pairs: list[Pair],
                 created_by: list[list[int]]):
        self.n = n
        self.clauses = clauses
        self.pairs = pairs
        # ids each literal creates, each id once, in first-creation order
        self.created_by = created_by

    @cached_property
    def solved_count(self) -> list[int]:
        """Per literal code, the number of sub-clauses containing it, a pair
        (l, l) counted twice."""
        count = [0] * (2 * self.n)
        for lit in chain.from_iterable(self.pairs):
            count[lit] += 1
        return count

    def __len__(self) -> int:
        return len(self.pairs)

    def events(self) -> list[list[tuple[Literal, int]]]:
        """Per sub-clause id, its (creator, parent clause) events in scan
        order: removing literal l from clause cid is an event of the rest of
        the clause, created by negate(l). A repeated clause repeats its events."""
        out: list[list[tuple[Literal, int]]] = [[] for _ in self.pairs]
        index = dict(zip(self.pairs, range(len(self.pairs))))
        for cid, (a, b, c) in enumerate(self.clauses):
            out[index[b, c]].append((a ^ 1, cid))
            out[index[a, c]].append((b ^ 1, cid))
            out[index[a, b]].append((c ^ 1, cid))
        return out

    def activated(self, assignment) -> set[int]:
        """Ids the assignment activates: the union of created_by[a] over its
        literals a, the reductions of the clauses that contain -a."""
        return set(chain.from_iterable(map(self.created_by.__getitem__, assignment)))

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
    index: dict[Pair, int] = {}
    created_by: list[list[int]] = [[] for _ in range(2 * f.n)]
    setdefault = index.setdefault
    for a, b, c in f.clauses:
        # negate(l) is l ^ 1, inlined in this loop, the hottest of the scan.
        created_by[a ^ 1].append(setdefault((b, c), len(index)))
        created_by[b ^ 1].append(setdefault((a, c), len(index)))
        created_by[c ^ 1].append(setdefault((a, b), len(index)))
    pairs = list(index)
    del index, setdefault   # events() rebuilds the map it needs
    if len(set(f.clauses)) < f.m:
        # A repeated clause repeats its events but creates nothing new.
        created_by = [list(dict.fromkeys(ids)) for ids in created_by]
    return SubClauseSpace(n=f.n, clauses=f.clauses, pairs=pairs, created_by=created_by)


class SpaceCensus(NamedTuple):
    possible: int        # 2n(n-1) distinct-variable literal pairs
    actual: int          # |S| after deduplication
    per_clause_bound: int  # 3m
    ratio: float         # 3r / (2(n-1)), as 3m / (2n(n-1))


def space_census(space: SubClauseSpace) -> SpaceCensus:
    n, m = space.n, len(space.clauses)
    if n < 2:
        raise ValueError("census needs n >= 2")
    return SpaceCensus(possible=2 * n * (n - 1), actual=len(space), per_clause_bound=3 * m,
                       ratio=3 * m / (2 * n * (n - 1)))


class InteractionMatrix(NamedTuple):
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
    """The dense |S| x 2n matrix; refuses more than MATRIX_MAX_CELLS cells.

    Each row writes only its own cells, in column l ^ 1 for literal l: the
    unit cells, then 's', then 'c', so a later kind overwrites an earlier one
    where a clause with a repeated literal or a tautology puts two in one cell."""
    width = 2 * space.n
    if len(space) * width > MATRIX_MAX_CELLS:
        raise GuardrailError(f"interaction matrix limited to {MATRIX_MAX_CELLS} cells, "
                             f"got {len(space)} sub-clauses x {width} literals")
    cells = []
    for (p, q), events in zip(space.pairs, space.events()):
        row = [""] * width
        row[p] = literal_str(q)   # -p leaves q as a unit clause, -q leaves p
        row[q] = literal_str(p)
        row[p ^ 1] = row[q ^ 1] = "s"
        for creator, _ in events:
            row[creator ^ 1] = "c"
        cells.append(row)
    return InteractionMatrix(columns=literal_columns(space.n), cells=cells)
