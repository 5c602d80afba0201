import math

import pytest
from hypothesis import assume
from hypothesis import strategies as st

from hypersat import Formula, build_space, formula, parse_literal, random_formula
from hypersat.formula import var_of


def lits(*names):
    return frozenset(parse_literal(x) for x in names)


def clause(text):
    return tuple(parse_literal(tok) for tok in text.split())


def subclause_id(space, pair):
    """The id of the sub-clause with these two literals, in either order;
    KeyError if the space has none."""
    return space.index[tuple(sorted(pair, key=var_of))]


# The worked 7-clause instance used throughout: three variables, every clause
# except (x0 v x1 v -x2), with unique satisfying assignment {-x0, -x1, x2}.
F3_CLAUSES = [
    "-x0 -x1 -x2",
    "-x0 -x1 x2",
    "-x0 x1 -x2",
    "-x0 x1 x2",
    "x0 x1 x2",
    "x0 -x1 -x2",
    "x0 -x1 x2",
]

# Published numbering of the 12 sub-clauses over three variables.
SUBCLAUSE_NUMBERING = {
    0: "-x0 -x1", 1: "-x0 x1", 2: "-x0 -x2", 3: "-x0 x2",
    4: "x0 -x1", 5: "x0 x1", 6: "x0 -x2", 7: "x0 x2",
    8: "-x1 -x2", 9: "-x1 x2", 10: "x1 -x2", 11: "x1 x2",
}


@pytest.fixture(scope="session")
def f3():
    return formula(3, [clause(c) for c in F3_CLAUSES])


@pytest.fixture(scope="session")
def f3_space(f3):
    return build_space(f3)


@pytest.fixture(scope="session")
def to_paper(f3_space):
    """Map internal sub-clause ids to the published S0..S11 numbering."""
    mapping = {subclause_id(f3_space, clause(pair)): sid
               for sid, pair in SUBCLAUSE_NUMBERING.items()}

    def convert(ids):
        return sorted(mapping[s] for s in ids)

    return convert


@pytest.fixture(scope="session")
def from_paper(f3_space):
    """Map published S0..S11 numbers to internal sub-clause ids."""
    mapping = {sid: subclause_id(f3_space, clause(pair))
               for sid, pair in SUBCLAUSE_NUMBERING.items()}

    def convert(ids):
        return {mapping[s] for s in ids}

    return convert


@st.composite
def formulas(draw, n_range, ratios, k=3):
    """Random width-k formulas, with up to three repeated clauses at drawn
    positions: parse_dimacs keeps repeated clauses, random_formula never
    draws them."""
    n = draw(st.integers(*n_range))
    r = draw(st.sampled_from(ratios))
    assume(round(r * n) <= math.comb(n, k) * (1 << k))
    f = random_formula(n, r, seed=draw(st.integers(0, 2**30)), k=k)
    clauses = list(f.clauses)
    for _ in range(draw(st.integers(0, 3)) if clauses else 0):
        clauses.insert(draw(st.integers(0, len(clauses))), draw(st.sampled_from(f.clauses)))
    return Formula(n=n, clauses=tuple(clauses), width=k)
