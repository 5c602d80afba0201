import importlib
import math
import random
import re
import tracemalloc
import warnings
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersat import (DimacsError, EvalReport, Formula, emit_dimacs, evaluate, formula,
                      literal_str, make_clause, make_literal, negate, parse_dimacs,
                      parse_literal, random_formula, solve_exhaustive)
from hypersat.dimacs import literal_to_dimacs
from hypersat.formula import (ORACLE_BLOCK_BITS, ORACLE_MAX_VARS, SAMPLE_POOL_MAX, _number,
                              _ratio, GuardrailError, check_consistent, is_negative, var_of)

from conftest import clause, dimacs_texts, formulas, lits


def test_negate_flips_polarity():
    x0 = parse_literal("x0")
    assert negate(x0) == parse_literal("-x0")
    assert negate(parse_literal("-x0")) == x0


def test_negate_is_involutive():
    for code in range(100):
        assert negate(negate(code)) == code
        assert var_of(negate(code)) == var_of(code)


def test_literal_str_round_trips():
    for name in ("x0", "-x0", "x17", "-x17"):
        assert literal_str(parse_literal(name)) == name


def test_make_clause_rejects_duplicates_and_contradictions():
    with pytest.raises(ValueError):
        make_clause([parse_literal("x0"), parse_literal("x0"), parse_literal("x1")])
    with pytest.raises(ValueError):
        make_clause([parse_literal("x0"), parse_literal("-x0"), parse_literal("x1")])


def test_parse_dimacs_transcription():
    f = parse_dimacs("p cnf 3 1\n-1 -2 -3 0\n")
    assert f.n == 3 and f.m == 1
    assert f.clauses[0] == clause("-x0 -x1 -x2")


def test_parse_dimacs_f3(f3):
    text = "p cnf 3 7\n" + "\n".join(
        "-1 -2 -3 0|-1 -2 3 0|-1 2 -3 0|-1 2 3 0|1 2 3 0|1 -2 -3 0|1 -2 3 0".split("|"))
    assert parse_dimacs(text) == f3


@pytest.mark.parametrize("text, line, fragment", [
    ("p dnf 2 1\n1 2 0", 1, "malformed header"),
    ("p cnf 2 1\n1 2 0", 2, "width"),
    ("p cnf 2 1\n1 1 2 0", 2, "duplicate or contradictory"),
    ("p cnf 2 1\n1 -1 2 0", 2, "duplicate or contradictory"),
    ("p cnf 2 1\n1 2 3 0", 2, "out of range"),
    ("p cnf 2 1\n1 2 -2", 2, "terminated"),
    ("1 2 3 0\np cnf 3 1", 1, "before"),
    ("p cnf 3 2\n1 2 3 0", 1, "promises"),
    ("p cnf 3 1\n1 0004 2 0", 2, "variable 4 out of range 1..3"),
    ("p cnf 3 1\n1 -0 2 0", 2, "embedded 0 inside clause"),
    ("p cnf 3 1\n1 1_0 2 0", 2, "non-integer token"),
    ("p cnf 3 1\n1 \u0661 2 0", 2, "non-ASCII byte 0xd9"),
    ("p cnf 1_0 1\n1 2 3 0", 1, "non-integer counts"),
    ("p cnf 3 \u0661\n1 2 3 0", 1, "non-ASCII byte 0xd9"),
    # A str is read as its UTF-8 bytes, so Unicode separators are non-ASCII
    # bytes, and only C's isspace bytes separate tokens.
    ("p cnf 3 1\n1\xa02 3 0\n", 2, "non-ASCII byte 0xc2"),
    ("c h\xe9llo\np cnf 3 1\n1 2 3 0\n", 1, "non-ASCII byte 0xc3"),
    ("p cnf 3 1\n1 2 3 0\ud800\n", 2, "non-ASCII byte 0xed"),
    (b"p cnf 3 1\n1\x1f2 3 0\n", 2, "non-integer token"),
    ("p cnf 3 1\n1 2 3 0\x1c1 2 3 0\n", 2, "non-integer token"),
])
def test_parse_dimacs_errors_name_lines(text, line, fragment):
    with pytest.raises(DimacsError) as exc_info:
        parse_dimacs(text)
    assert exc_info.value.line == line
    assert fragment in str(exc_info.value)


def test_parse_dimacs_warns_on_duplicate_clause():
    with pytest.warns(UserWarning, match="duplicate clause"):
        f = parse_dimacs("p cnf 3 2\n1 2 3 0\n1 2 3 0")
    assert f.m == 2


def test_emit_parse_round_trip(f3):
    assert parse_dimacs(emit_dimacs(f3)) == f3


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda k: formulas(n_range=(k, 30), ratios=(1, 2.5, 4.25), k=k)))
def test_emit_parse_round_trip_property(f):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")   # repeated clauses are kept, with a warning
        assert parse_dimacs(emit_dimacs(f), width=f.width) == f


def test_emit_empty_formula():
    empty = formula(0, [])
    assert emit_dimacs(empty) == "p cnf 0 0\n"
    assert parse_dimacs(emit_dimacs(empty)) == empty


def test_round_trip_generated_instances():
    for seed in (7, 8, 9):
        f = random_formula(30, 4.25, seed=seed)
        text = emit_dimacs(f)
        assert parse_dimacs(text) == f
        assert emit_dimacs(parse_dimacs(text)) == text


def reference_number(token):
    """A DIMACS number: an optional sign and ASCII digits."""
    if not re.fullmatch(rb"[+-]?[0-9]+", token):
        raise ValueError(token)
    return int(token)


def reference_parse_dimacs(text, width=3):
    r"""The per-number parser parse_dimacs replaced, kept as its oracle: one
    conversion per token, one range check per number, make_clause per clause.
    It reads bytes, a str as its UTF-8 bytes: lines end at "\n", "\r\n" or
    "\r", and tokens are separated by ASCII whitespace."""
    data = text.encode("utf-8", "surrogatepass") if isinstance(text, str) else text
    lines = data.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        for byte in raw:
            if byte > 0x7f:
                raise DimacsError(lineno, f"non-ASCII byte 0x{byte:02x}")
    n = m = -1
    header_line = 0
    clauses = []
    seen = set()
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        shown = line.decode()
        if not line or line.startswith(b"c"):
            continue
        if line.startswith(b"p"):
            if n >= 0:
                raise DimacsError(lineno, "duplicate 'p cnf' header")
            parts = line.split()
            if len(parts) != 4 or parts[0] != b"p" or parts[1] != b"cnf":
                raise DimacsError(lineno, f"malformed header {shown!r}, expected 'p cnf <n> <m>'")
            try:
                n, m = reference_number(parts[2]), reference_number(parts[3])
            except ValueError:
                raise DimacsError(lineno, f"non-integer counts in header {shown!r}") from None
            if n < 0 or m < 0:
                raise DimacsError(lineno, "negative counts in header")
            header_line = lineno
            continue
        if n < 0:
            raise DimacsError(lineno, "clause before 'p cnf' header")
        try:
            numbers = [reference_number(tok) for tok in line.split()]
        except ValueError:
            raise DimacsError(lineno, f"non-integer token in clause {shown!r}") from None
        if not numbers or numbers[-1] != 0:
            raise DimacsError(lineno, "clause not terminated by 0")
        numbers = numbers[:-1]
        if len(numbers) != width:
            raise DimacsError(lineno, f"clause width {len(numbers)}, expected {width}")
        lits = []
        for num in numbers:
            if num == 0:
                raise DimacsError(lineno, "embedded 0 inside clause")
            v = abs(num) - 1
            if v >= n:
                raise DimacsError(lineno, f"variable {abs(num)} out of range 1..{n}")
            lits.append(make_literal(v, negative=num < 0))
        try:
            clause = make_clause(lits)
        except ValueError as exc:
            raise DimacsError(lineno, str(exc)) from None
        if clause in seen:
            warnings.warn(f"line {lineno}: duplicate clause", stacklevel=2)
        seen.add(clause)
        clauses.append(clause)
    if n < 0:
        raise DimacsError(max(1, len(lines)), "missing 'p cnf' header")
    if len(clauses) != m:
        raise DimacsError(header_line, f"header promises {m} clauses, found {len(clauses)}")
    return Formula(n=n, clauses=tuple(clauses), width=width)


def parse_outcome(parse, text, width):
    """(Formula or (line, message) of the DimacsError, warning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = parse(text, width)
        except DimacsError as exc:
            result = (exc.line, str(exc))
    return result, [str(w.message) for w in caught]


@settings(max_examples=500, derandomize=True, database=None, deadline=None)
@given(dimacs_texts())
@example(("p cnf 3 1\n1 +01 2 0", 3))
@example(("p cnf 3 1\n\t+1\t-02 003\t-0\n", 3))
@example(("p cnf 3 1\n1 2 3 0 0", 3))
@example(("p cnf 3 1\n1 x2 3 0", 3))
@example(("p cnf 3 3\n1 2 3 0\nc\n+1 002 3 00\n\n3 2 1 0\n", 3))
@example((b"p cnf 3 1\n1 2 \xe9 0", 3))
@example(("p cnf 3 1\n1\xa02 3 0\n", 3))
@example((b"p cnf 3 1\n1\x1f2 3 0\n", 3))
@example(("p cnf 3 1\n1\x0b2\x0c3 0\n", 3))
@example(("p cnf 3 2\n1 2 3 0\x1c-1 2 3 0\x85 \n", 3))
@example(("c \ud800\np cnf 3 1\n1 2 3 0\n", 3))
# A width-3 line in each of the six literal orders, then one line per way
# the width-3 fast path hands a line to the general path, and a repeated
# clause, which warns with its line.
@example(("p cnf 3 1\n1 -2 3 0\n", 3))
@example(("p cnf 3 1\n1 3 -2 0\n", 3))
@example(("p cnf 3 1\n-2 1 3 0\n", 3))
@example(("p cnf 3 1\n-2 3 1 0\n", 3))
@example(("p cnf 3 1\n3 1 -2 0\n", 3))
@example(("p cnf 3 1\n3 -2 1 0\n", 3))
@example(("p cnf 3 1\n1 0 3 0\n", 3))
@example(("p cnf 3 1\n1 2 4 0\n", 3))
@example(("p cnf 3 1\n-4 2 3 0\n", 3))
@example(("p cnf 3 1\n1 2 1 0\n", 3))
@example(("p cnf 3 1\n1 2 -1 0\n", 3))
@example(("p cnf 4 1\n1 2 3 4 0\n", 3))
@example(("p cnf 4 1\n1 2 3 4\n", 3))
@example(("p cnf 3 3\n1 2 3 0\n-1 2 3 0\n3 1 2 0\n", 3))
def test_parse_dimacs_matches_the_per_number_parser(case):
    # A str reads as its UTF-8 bytes, by the same rules as the reference.
    text, width = case
    outcome = parse_outcome(parse_dimacs, text, width)
    assert outcome == parse_outcome(reference_parse_dimacs, text, width)
    if isinstance(text, str):
        assert outcome == parse_outcome(parse_dimacs, text.encode("utf-8", "surrogatepass"), width)


def test_parse_dimacs_reads_non_canonical_tokens():
    text = "c tabs, signs, zeros\np cnf 3 2\n\t+3 -01\t002 00\n\n-3 1 +2 -0\n"
    assert parse_dimacs(text) == formula(3, [clause("-x0 x1 x2"), clause("x0 x1 -x2")])


def test_parse_dimacs_memory_is_not_sized_by_the_header():
    # A header can name 10^9 variables in a few bytes; the caller caps n
    # after parsing, so the parse must not allocate per variable.
    tracemalloc.start()
    try:
        f = parse_dimacs("p cnf 1000000000 1\n1 2 3 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert f.n == 10**9 and f.clauses == (clause("x0 x1 x2"),)
    assert peak < 2**20


def reference_emit_dimacs(f, comment=None):
    """emit_dimacs before its rendering table: literal_to_dimacs per literal."""
    lines = []
    if comment:
        lines.extend(f"c {c}" for c in comment.splitlines())
    lines.append(f"p cnf {f.n} {f.m}")
    for clause_ in f.clauses:
        lines.append(" ".join(str(literal_to_dimacs(lit)) for lit in clause_) + " 0")
    return "\n".join(lines) + "\n"


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from((2, 3)).flatmap(
    lambda k: formulas(n_range=(k, 30), ratios=(1, 2.5, 4.25), k=k)),
    st.sampled_from((None, "", "2-sat reduction", "n=8 r=4.25 seed=1\nsecond line")))
def test_emit_dimacs_matches_the_per_literal_rendering(f, comment):
    assert emit_dimacs(f, comment) == reference_emit_dimacs(f, comment)


def test_emit_dimacs_of_a_large_n_with_three_clauses():
    n = 100_000
    f = formula(n, [(make_literal(n - 1, True), make_literal(0), make_literal(n // 2)),
                    (make_literal(1), make_literal(2, True), make_literal(3)),
                    (make_literal(n - 3), make_literal(n - 2), make_literal(n - 1, True))])
    text = emit_dimacs(f, comment="large n")
    assert text == reference_emit_dimacs(f, comment="large n")
    assert text == ("c large n\np cnf 100000 3\n1 50001 -100000 0\n2 -3 4 0\n"
                    "99998 99999 -100000 0\n")


def test_generator_determinism():
    assert random_formula(20, 4.25, seed=42) == random_formula(20, 4.25, seed=42)
    assert random_formula(20, 4.25, seed=42) != random_formula(20, 4.25, seed=43)


def test_generator_rejects_small_n():
    with pytest.raises(ValueError):
        random_formula(2, 1.0, seed=1)


@pytest.mark.parametrize("r", [-1.0, -0.01, math.inf, -math.inf, math.nan, 1e308])
def test_generator_rejects_a_ratio_that_is_negative_or_not_finite(r):
    # 1e308 is finite, but r * n is not.
    with pytest.raises(ValueError, match="r >= 0 with r \\* n finite"):
        random_formula(5, r, seed=1)
    assert random_formula(5, 0.0, seed=1).m == 0


def test_generator_can_exhaust_all_clauses_of_three_variables():
    f = random_formula(3, 7 / 3, seed=11)
    assert f.m == 7
    assert len(set(f.clauses)) == 7


def test_generator_exhaustion_error():
    # Only C(3,3) * 8 = 8 distinct width-3 clauses exist over three variables.
    with pytest.raises(ValueError):
        random_formula(3, 3.0, seed=1)


def sample_formula(n, r, seed, k=3):
    """The generator random_formula replaced, kept as its oracle: each clause
    is sorted(rng.sample(range(n), k)) with one getrandbits(1) polarity per
    variable, and repeated clauses are redrawn."""
    m = round(r * n)
    rng = random.Random(seed)
    clauses = []
    seen = set()
    while len(clauses) < m:
        variables = sorted(rng.sample(range(n), k))
        c = tuple(make_literal(v, negative=bool(rng.getrandbits(1))) for v in variables)
        if c not in seen:
            seen.add(c)
            clauses.append(c)
    return Formula(n=n, clauses=tuple(clauses), width=k)


@st.composite
def generator_args(draw):
    """(n, k, r, seed) with n on both sides of sample's pool threshold and m
    up to the number of distinct clauses (or 400, whichever is smaller)."""
    k = draw(st.integers(2, 6))
    n = draw(st.one_of(st.sampled_from([SAMPLE_POOL_MAX, SAMPLE_POOL_MAX + 1]),
                       st.integers(k, 2 * SAMPLE_POOL_MAX)))
    m = draw(st.integers(0, min(math.comb(n, k) << k, 400)))
    return n, k, m / n, draw(st.integers(0, 2**32))


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(generator_args())
def test_generator_matches_sample(args):
    n, k, r, seed = args
    assert random_formula(n, r, seed, k) == sample_formula(n, r, seed, k)


@pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("n", [6, 7])
def test_generator_matches_sample_at_the_distinct_clause_limit(n, k):
    r = (math.comb(n, k) << k) / n
    assert random_formula(n, r, 3, k) == sample_formula(n, r, 3, k)


@pytest.mark.parametrize("n", range(3, SAMPLE_POOL_MAX + 1))
def test_k3_draw_matches_sample_in_the_pool_branch(n):
    # Every n the straight-line pool draw covers, at n = 3 and 4 also with
    # every distinct clause drawn.
    limit = (math.comb(n, 3) << 3) / n
    ratios = [r for r in (0.5, 2, 4.25) if r <= limit] + ([limit] if n <= 4 else [])
    for r in ratios:
        for seed in range(25):
            assert random_formula(n, r, seed) == sample_formula(n, r, seed)


@pytest.mark.parametrize("n, r, seed, k", [
    (500, 4.25, 1, 3), (500, 4.25, 2, 3), (500, 1.0, 3, 2), (500, 9.8, 4, 4),
    (500, 21.0, 5, 5), (500, 4.25, 6, 6), (2000, 4.25, 1, 3), (2000, 4.25, 7, 3),
])
def test_generator_matches_sample_at_large_n(n, r, seed, k):
    assert random_formula(n, r, seed, k) == sample_formula(n, r, seed, k)


def test_generator_invariants_over_many_seeds():
    for seed in range(1000):
        f = random_formula(20, 4.25, seed=seed)
        assert f.m == 85
        assert len(set(f.clauses)) == 85
        for c in f.clauses:
            assert len(c) == 3
            assert len({var_of(lit) for lit in c}) == 3


def test_satisfied_f3_sets(f3):
    expected = {
        "-x0": [0, 1, 2, 3], "-x1": [0, 1, 5, 6], "-x2": [0, 2, 5],
        "x0": [4, 5, 6], "x1": [2, 3, 4], "x2": [1, 3, 4, 6],
    }
    occurrences = f3.occurrences()
    assert len(occurrences) == 2 * f3.n
    for name, ids in expected.items():
        assert occurrences[parse_literal(name)] == ids


def test_satisfied_absent_literal():
    f = formula(4, [clause("x0 x1 x2")])
    assert f.occurrences()[parse_literal("x3")] == []


def test_satisfied_polarities_disjoint():
    for seed in range(20):
        occurrences = random_formula(10, 4.25, seed=seed).occurrences()
        for v in range(10):
            pos, neg = make_literal(v), make_literal(v, True)
            assert not set(occurrences[pos]) & set(occurrences[neg])


def test_evaluate_f3(f3):
    full = evaluate(f3, lits("-x0", "-x1", "x2"))
    assert full.satisfied_count == 7 and full.fraction == 1.0
    partial = evaluate(f3, lits("-x0", "x1", "x2"))
    assert partial.unsatisfied_ids == (5,)
    assert partial.fraction == pytest.approx(6 / 7)


def test_evaluate_empty_formula():
    assert evaluate(formula(0, []), frozenset()).fraction == 1.0


def test_evaluate_rejects_inconsistent(f3):
    with pytest.raises(ValueError, match="inconsistent"):
        evaluate(f3, frozenset([parse_literal("x0"), parse_literal("-x0")]))


def evaluate_by_sets(f, a):
    """The set-membership rule evaluate replaced, kept as its oracle."""
    if any(negate(lit) in a for lit in a):
        raise ValueError("inconsistent assignment")
    unsat = tuple(cid for cid, c in enumerate(f.clauses) if not any(lit in a for lit in c))
    sat = f.m - len(unsat)
    return EvalReport(sat, unsat, sat / f.m if f.m else 1.0)


@st.composite
def evaluations(draw):
    """A width-2 or width-3 formula and an assignment over some of its
    variables, plus codes outside 0..2n-1 that no clause holds."""
    k = draw(st.sampled_from((2, 3)))
    f = draw(formulas(n_range=(k, 20), ratios=(0.5, 1, 2.5, 4.25), k=k))
    polarity = st.sampled_from((None, False, True))   # None: unassigned
    a = {make_literal(v, negative) for v in range(f.n)
         if (negative := draw(polarity)) is not None}
    a |= set(draw(st.lists(st.integers(-8, -1) | st.integers(2 * f.n, 2 * f.n + 8),
                           max_size=3)))
    return f, frozenset(a)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(evaluations())
def test_evaluate_matches_set_rule(case):
    f, a = case
    try:
        expected = evaluate_by_sets(f, a)
    except ValueError:
        with pytest.raises(ValueError, match="inconsistent assignment"):
            evaluate(f, a)
    else:
        assert evaluate(f, a) == expected


def test_evaluate_ignores_codes_outside_the_formula(f3):
    a = lits("-x0", "-x1") | {-3, 6, 9, 100}
    assert evaluate(f3, a) == evaluate_by_sets(f3, a)
    assert evaluate(f3, a).unsatisfied_ids == (4,)


@pytest.mark.parametrize("clauses, message", [
    (((0, 2, 4), (0, 2)), "clause 1 has width 2, expected 3"),
    (((0, 2, 4, 6),), "clause 0 has width 4, expected 3"),
    (((0, 2, 99, 6),), "clause 0 has width 4, expected 3"),
    (((0, 2, 8),), "clause 0: variable x4 out of range [0,4)"),
    (((0, 9, -1),), "clause 0: variable x4 out of range [0,4)"),
    (((0, 2, 4), (-1, 2, 4)), "clause 1: variable x-1 out of range [0,4)"),
    (((0, 2, 8), (0, 2)), "clause 0: variable x4 out of range [0,4)"),
])
def test_formula_rejects_width_and_range(clauses, message):
    with pytest.raises(ValueError) as exc_info:
        Formula(n=4, clauses=clauses)
    assert str(exc_info.value) == message


def test_formula_is_a_read_only_value():
    f = Formula(n=4, clauses=((0, 2, 4), (1, 3, 6)))
    same = formula(4, [(4, 0, 2), (6, 1, 3)])
    assert f == same and hash(f) == hash(same) and len({f, same}) == 1
    assert (f.n, f.clauses, f.width) == (4, ((0, 2, 4), (1, 3, 6)), 3)
    assert f != Formula(n=5, clauses=f.clauses)
    assert f != Formula(n=4, clauses=f.clauses[:1])
    assert Formula(n=4, clauses=(), width=2) != Formula(n=4, clauses=())
    for name in ("n", "clauses", "width", "extra"):
        with pytest.raises(AttributeError):
            setattr(f, name, 0)
    assert (f.n, f.clauses, f.width) == (4, ((0, 2, 4), (1, 3, 6)), 3)


def formula_check_walk(n, clauses, width):
    """The per-clause walk Formula's constructor ran before its bulk checks,
    kept as their oracle: the message of the first failure, or None."""
    codes = 2 * n
    for cid, clause in enumerate(clauses):
        if len(clause) != width:
            return f"clause {cid} has width {len(clause)}, expected {width}"
        if clause and (min(clause) < 0 or max(clause) >= codes):
            for lit in clause:
                if not 0 <= var_of(lit) < n:
                    return f"clause {cid}: variable x{var_of(lit)} out of range [0,{n})"
    return None


@st.composite
def raw_formulas(draw):
    """(n, clauses, width) with widths 0-4, mostly the declared one, and codes
    from -3 to 2n + 2, so that empty clauses, mixed widths, negative codes and
    codes >= 2n all occur."""
    n = draw(st.integers(0, 5))
    width = draw(st.integers(0, 4))
    length = st.one_of(st.just(width), st.integers(0, 4))
    code = st.one_of(st.integers(0, max(0, 2 * n - 1)), st.integers(-3, 2 * n + 2))
    clauses = draw(st.lists(length.flatmap(
        lambda k: st.lists(code, min_size=k, max_size=k).map(tuple)), max_size=6))
    return n, tuple(clauses), width


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(raw_formulas())
def test_formula_accepts_exactly_what_the_walk_accepts(case):
    n, clauses, width = case
    message = formula_check_walk(n, clauses, width)
    if message is None:
        assert Formula(n=n, clauses=clauses, width=width).clauses == clauses
    else:
        with pytest.raises(ValueError) as exc_info:
            Formula(n=n, clauses=clauses, width=width)
        assert str(exc_info.value) == message


def test_clause_satisfaction_xor_all_negations():
    rng = random.Random(3)
    for seed in range(30):
        f = random_formula(8, 4.25, seed=seed)
        a = frozenset(make_literal(v, negative=bool(rng.getrandbits(1)))
                      for v in range(f.n))
        report = evaluate(f, a)
        for cid, c in enumerate(f.clauses):
            unsat = cid in report.unsatisfied_ids
            all_negated = all(negate(lit) in a for lit in c)
            assert unsat == all_negated


def test_solve_exhaustive_f3(f3):
    solutions = solve_exhaustive(f3, cap=10)
    assert solutions == [lits("-x0", "-x1", "x2")]
    for a in solutions:
        assert not evaluate(f3, a).unsatisfied_ids


def test_solve_exhaustive_unsat():
    all_eight = [make_clause([make_literal(v, negative=bool((mask >> v) & 1))
                              for v in range(3)]) for mask in range(8)]
    f = formula(3, all_eight)
    assert solve_exhaustive(f) == []


def test_solve_exhaustive_vacuous():
    f = formula(1, [], width=3)
    found = solve_exhaustive(f, cap=10)
    assert len(found) == 2


def test_solve_exhaustive_cap():
    f = formula(4, [], width=3)
    assert len(solve_exhaustive(f, cap=5)) == 5


def test_solve_exhaustive_guardrail():
    f = formula(27, [], width=3)
    with pytest.raises(GuardrailError):
        solve_exhaustive(f)


def exhaustive_scan(f, cap=10):
    """The per-word loop solve_exhaustive replaced, kept as its oracle: every
    word s in ascending order, with one test per clause."""
    masks = []
    for c in f.clauses:
        vm = fp = 0
        for lit in c:
            bit = 1 << var_of(lit)
            vm |= bit
            if is_negative(lit):
                fp |= bit
        masks.append((vm, fp))
    found = []
    for s in range(1 << f.n):
        if all((s & vm) != fp for vm, fp in masks):
            found.append(frozenset(
                make_literal(v, negative=((s >> v) & 1) == 0) for v in range(f.n)))
            if len(found) >= cap:
                break
    return found


def word_of(a):
    return sum(1 << var_of(lit) for lit in a if not is_negative(lit))


CAPS = st.sampled_from((1, 3, 10, None))   # None: 2^n, every solution


def assert_matches_scan(f, cap):
    cap = 1 << f.n if cap is None else cap
    found = solve_exhaustive(f, cap)
    assert found == exhaustive_scan(f, cap)
    return found


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 12), ratios=(0.5, 1, 2.5, 4.25, 6)), CAPS)
def test_solve_exhaustive_matches_scan(f, cap):
    assert_matches_scan(f, cap)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(2, 12), ratios=(0.5, 1, 2, 3), k=2), CAPS)
def test_solve_exhaustive_matches_scan_width_2(f, cap):
    assert_matches_scan(f, cap)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 10), ratios=(0.5, 1, 2.5, 4.25)), CAPS, st.integers(0, 4))
def test_solve_exhaustive_small_blocks_match_scan(f, cap, block_bits):
    """Blocks of 2^block_bits words put most variables in the high part."""
    with mock.patch.object(importlib.import_module("hypersat.formula"),
                           "ORACLE_BLOCK_BITS", block_bits):
        assert_matches_scan(f, cap)


@pytest.mark.parametrize("n", [0, 1, 5, 12])
@pytest.mark.parametrize("cap", [1, 3, 10, None])
def test_solve_exhaustive_empty_formula_matches_scan(n, cap):
    found = assert_matches_scan(formula(n, []), cap)
    assert len(found) == min(1 << n, cap or 1 << n)


@pytest.mark.parametrize("n, r, seed, cap", [
    (17, 0.25, 1, 50_000),
    (18, 1.0, 2, 10_000),
    (19, 1.5, 3, 5_000),
    (20, 2.0, 3, 3_000),
    (17, 3.0, 4, None),
])
def test_solve_exhaustive_crosses_blocks(n, r, seed, cap):
    """Few clauses over n > ORACLE_BLOCK_BITS: many solutions, the last of
    them past the first block of 2^ORACLE_BLOCK_BITS words. Every solution
    matches the scan, and a smaller cap returns their prefix."""
    f = random_formula(n, r, seed)
    every = assert_matches_scan(f, None)
    found = every if cap is None else solve_exhaustive(f, cap)
    assert found == every[:cap]
    assert word_of(found[-1]) >= 1 << ORACLE_BLOCK_BITS


def test_solve_exhaustive_unsat_at_max_vars():
    """2^26 words in 2^10 blocks: about 10 ms, where the per-word scan takes
    about 30 s."""
    assert solve_exhaustive(random_formula(ORACLE_MAX_VARS, 8.0, seed=1), cap=1) == []


def test_solve_exhaustive_satisfiable_at_max_vars():
    f = random_formula(ORACLE_MAX_VARS, 2.0, seed=1)
    found = solve_exhaustive(f, cap=5)
    assert len(found) == 5
    for a in found:
        assert sorted(map(var_of, a)) == list(range(f.n))
        assert not evaluate(f, a).unsatisfied_ids
    words = [word_of(a) for a in found]
    assert words == sorted(set(words))


def test_solve_exhaustive_memory_follows_high_patterns():
    """10k clauses at n = 26 with at most 600 distinct high patterns: one
    2^16-bit word per clause would need over 80 MB."""
    rng = random.Random(5)
    high = range(ORACLE_BLOCK_BITS, ORACLE_MAX_VARS)

    def random_clause(variables):
        return make_clause(make_literal(v, bool(rng.getrandbits(1)))
                           for v in rng.sample(variables, 3))

    pool = ([random_clause(high) for _ in range(300)]
            + [random_clause(range(ORACLE_MAX_VARS)) for _ in range(300)])
    f = Formula(n=ORACLE_MAX_VARS, clauses=tuple(rng.choice(pool) for _ in range(10_000)))
    tracemalloc.start()
    try:
        solve_exhaustive(f, cap=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_assignment_helpers():
    assert check_consistent([parse_literal("x0"), parse_literal("-x1")]) == lits("x0", "-x1")
    with pytest.raises(ValueError):
        check_consistent([parse_literal("x0"), parse_literal("-x0")])


@pytest.mark.parametrize("text,value", [("0", 0), ("-0", 0), ("007", 7), ("+3", 3), ("-4", -4)])
def test_number_reads_a_sign_and_ascii_digits(text, value):
    assert _number(text) == value == _ratio(text)


# "4.25" is a clause ratio, which _ratio reads and _number does not.
@pytest.mark.parametrize("text", ["", "+", "-", "+-1", " 1", "1.0", "1_0", "\u0661", "x1",
                                  "4.25"])
def test_number_refuses_what_is_not_a_dimacs_number(text):
    with pytest.raises(ValueError, match="not a number"):
        _number(text)


def test_parse_literal_reads_unsigned_ascii_digits():
    assert parse_literal("x007") == parse_literal("x7") == make_literal(7)
    for text in ("x", "-x", "x+1", "x-1", "x1_0", "x\u0661", "1", "y1"):
        with pytest.raises(ValueError, match="not a literal"):
            parse_literal(text)
