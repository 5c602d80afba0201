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
    return dict(zip(space.pairs, range(len(space.pairs))))[tuple(sorted(pair, key=var_of))]


def containing(space):
    """Per literal code, the ids of the sub-clauses containing it, ascending
    (a pair (l, l) lists its id twice): the reference for solved_count,
    unsolved_curve and analyze's subsat."""
    out = [[] for _ in range(2 * space.n)]
    for sid, (p, q) in enumerate(space.pairs):
        out[p].append(sid)
        out[q].append(sid)
    return out


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


def dimacs_token(draw, num):
    """A token that int() reads as num: canonical, or with a '+', leading
    zeros or a signed zero."""
    sign = "-" if num < 0 else draw(st.sampled_from(("", "+")))
    return sign + "0" * draw(st.sampled_from((0, 0, 1, 2))) + str(abs(num))


# Tokens that are not DIMACS numbers; int() reads "1_0" and "\u0661" (ARABIC-INDIC
# DIGIT ONE) all the same.
NON_INTEGERS = ("x1", "1.5", "%", "1_0", "\u0661")

# Characters that Unicode rules read as a separator or a line end but DIMACS's
# byte rules do not, or the other way round: a no-break space, NEL, LINE
# SEPARATOR, a lone surrogate (all non-ASCII), "\v" and "\f" (separators that
# end no line) and "\x1c"-"\x1f" (neither).
ODD_CHARACTERS = ("\xa0", "\x85", "\u2028", "\ud800", "\x0b", "\x0c",
                  "\x1c", "\x1d", "\x1e", "\x1f")

# Line faults, one per error class of parse_dimacs.
CLAUSE_FAULTS = ("short", "long", "duplicate", "contradictory", "out of range",
                 "unterminated", "embedded 0", "non-integer")
HEADER_FAULTS = ("missing", "late", "twice", "dnf", "three fields", "non-integer",
                 "negative", "miscount")


@st.composite
def dimacs_texts(draw):
    r"""(DIMACS text or bytes, width): comments, blank lines, tabs, "\v" and
    "\f", non-canonical tokens and repeated clauses, with a fault of each
    error class or one of ODD_CHARACTERS in some draws; about half the draws
    are valid."""
    width = draw(st.sampled_from((2, 3)))
    n = draw(st.integers(width, 7))
    pool = [draw(st.lists(st.integers(1, n), min_size=width, max_size=width, unique=True))
            for _ in range(draw(st.integers(1, 4)))]
    clause_lines = []
    for _ in range(draw(st.integers(0, 6))):
        nums = [v * draw(st.sampled_from((1, -1))) for v in draw(st.sampled_from(pool))]
        nums.append(0)
        fault = draw(st.sampled_from((None,) * 16 + CLAUSE_FAULTS))
        if fault == "short":
            del nums[0]
        elif fault == "long":
            nums.insert(0, n + 1 - abs(nums[0]) if abs(nums[0]) < n else 1)
        elif fault in ("duplicate", "contradictory"):
            nums[1] = nums[0] if fault == "duplicate" else -nums[0]
        elif fault == "out of range":
            nums[draw(st.integers(0, width - 1))] = draw(st.sampled_from((n + 1, -(n + 1), 99)))
        elif fault == "unterminated":
            nums.pop()
        elif fault == "embedded 0":
            nums[draw(st.integers(0, width - 1))] = 0
        tokens = [dimacs_token(draw, num) for num in nums]
        if fault == "non-integer":
            tokens.insert(draw(st.integers(0, len(tokens))), draw(st.sampled_from(NON_INTEGERS)))
        seps = [draw(st.sampled_from((" ", "  ", "\t", " \t") * 3 + ("\x0b", "\x0c")))
                for _ in tokens]
        line = "".join(sep + tok for sep, tok in zip(seps, tokens))
        clause_lines.append(line[draw(st.sampled_from((0, 1))):] + draw(st.sampled_from(("", " ", "\t"))))
    m = len(clause_lines)
    header = f"p cnf {n} {m}"
    fault = draw(st.sampled_from((None,) * 8 + HEADER_FAULTS))
    bad_count = draw(st.sampled_from(NON_INTEGERS)) if fault == "non-integer" else None
    header = {"dnf": f"p dnf {n} {m}", "three fields": f"p cnf {n}",
              "non-integer": f"p cnf {n} {bad_count}", "negative": f"p cnf -{n} {m}",
              "miscount": f"p cnf {n} {m + 1}"}.get(fault, header)
    lines = list(clause_lines)
    if fault != "missing":
        lines.insert(min(1, len(lines)) if fault == "late" else 0, header)
    if fault == "twice":
        lines.append(header)
    for _ in range(draw(st.integers(0, 3))):
        extra = draw(st.sampled_from(("", "  ", "\t", "c", "c comment 1 2 0", " c indented", "cnf")))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "\n".join(lines) + draw(st.sampled_from(("", "\n", "\n\n", "\r\n")))
    kind = draw(st.sampled_from(("str",) * 6 + ("bytes",) * 6 + ("non-ASCII",) + ("odd",) * 3))
    if kind == "odd":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(ODD_CHARACTERS)) + text[at:]
    if kind in ("str", "odd"):
        return text, width
    data = text.encode()   # a non-ASCII token becomes non-ASCII bytes
    if kind == "non-ASCII":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data, width
