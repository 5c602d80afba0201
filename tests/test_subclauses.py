import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypersat import (Formula, build_space, formula, interaction_matrix,
                      make_literal, negate, parse_literal, random_formula,
                      space_census, thresholds)
from hypersat.formula import literal_str, var_of

from conftest import SUBCLAUSE_NUMBERING, clause, containing, formulas, lits, subclause_id


def cell_of(matrix, sid, name):
    return matrix.cells[sid][matrix.columns.index(parse_literal(name))]


def unit_literals(space, lit):
    """Literals forced as units when lit collapses the sub-clauses containing
    its negation, read from lit's column of the interaction matrix."""
    matrix = interaction_matrix(space)
    column = matrix.columns.index(lit)
    return {parse_literal(row[column]) for row in matrix.cells
            if row[column] not in ("", "c", "s")}


def test_f3_space_enumerates_all_twelve(f3_space):
    assert len(f3_space) == 12
    for pair in SUBCLAUSE_NUMBERING.values():
        subclause_id(f3_space, clause(pair))  # raises KeyError if missing


def test_space_requires_width_3():
    f2 = formula(3, [clause("x0 x1")], width=2)
    with pytest.raises(ValueError):
        build_space(f2)


def test_single_clause_created_sets():
    f = formula(6, [clause("-x1 -x4 x5")])
    space = build_space(f)
    assert set(space.created_by[parse_literal("x1")]) == {subclause_id(space, clause("-x4 x5"))}
    assert set(space.created_by[parse_literal("x4")]) == {subclause_id(space, clause("-x1 x5"))}
    assert set(space.created_by[parse_literal("-x5")]) == {subclause_id(space, clause("-x1 -x4"))}
    assert len(space) == 3


def test_empty_formula_space():
    space = build_space(formula(0, []))
    assert len(space) == 0


def test_f3_subclauses_of(f3_space, to_paper):
    expected = {
        "-x0": [8, 9, 11], "-x1": [2, 3, 7], "-x2": [0, 1, 4, 5],
        "x0": [8, 9, 10, 11], "x1": [2, 3, 6, 7], "x2": [0, 1, 4],
    }
    for name, ids in expected.items():
        assert to_paper(set(f3_space.created_by[parse_literal(name)])) == ids


def test_f3_subsat(f3_space, to_paper):
    # analyze's subsat: the pairs read as a width-2 formula, by occurrence.
    subsat = Formula(3, tuple(f3_space.pairs), width=2).occurrences()
    assert subsat == containing(f3_space)
    assert to_paper(set(subsat[parse_literal("-x0")])) == [0, 1, 2, 3]
    assert to_paper(set(subsat[parse_literal("x2")])) == [3, 7, 9, 11]


def test_unitclauses_worked_example():
    f = formula(9, [clause("-x1 -x4 x5"), clause("-x3 -x4 x8"), clause("-x1 -x3 -x4")])
    space = build_space(f)
    # Restrict to the two sub-clauses containing -x3 (activated by x4).
    assert unit_literals(space, parse_literal("x3")) >= lits("x8", "-x1")
    # One clause whose sub-clauses containing -x3 are exactly (-x3 v x8) and
    # (-x1 v -x3): assigning x3 forces x8 and -x1.
    small = formula(9, [clause("-x1 -x3 x8")])
    small_space = build_space(small)
    assert unit_literals(small_space, parse_literal("x3")) == lits("x8", "-x1")


def test_unitclauses_f3(f3_space):
    assert unit_literals(f3_space, parse_literal("x0")) == lits("-x1", "x1", "-x2", "x2")


def test_unitclauses_absent_negation():
    f = formula(4, [clause("x0 x1 x2")])
    space = build_space(f)
    assert unit_literals(space, parse_literal("-x3")) == set()


def creators(events):
    return {creator for creator, _ in events}


def parents(events):
    return {parent for _, parent in events}


def test_creators_f3(f3_space, from_paper):
    (s8,) = from_paper({8})
    events = f3_space.events()
    assert creators(events[s8]) == lits("x0", "-x0")
    union = set().union(*map(creators, events))
    per_literal = {lit for lit, ids in enumerate(f3_space.created_by) if ids}
    assert union == per_literal


def test_parents_f3(f3_space, from_paper):
    (s8,) = from_paper({8})
    events = f3_space.events()
    assert parents(events[s8]) == {0, 5}
    (s10,) = from_paper({10})
    assert parents(events[s10]) == {2}


def test_parent_reconstruction_invariant():
    for seed in range(15):
        f = random_formula(9, 4.25, seed=seed)
        space = build_space(f)
        for pair, events in zip(space.pairs, space.events()):
            for creator, parent in events:
                assert tuple(sorted({*pair, negate(creator)}, key=var_of)) in f.clauses
                assert set(pair) < set(f.clauses[parent])


def test_duality_invariant():
    for seed in range(10):
        f = random_formula(8, 4.25, seed=seed)
        space = build_space(f)
        events = space.events()
        for v in range(f.n):
            for lit in (make_literal(v), make_literal(v, True)):
                for sid in set(space.created_by[lit]):
                    assert any(negate(lit) in f.clauses[cid] for cid in parents(events[sid]))


def test_census_f3(f3_space):
    census = space_census(f3_space)
    assert census.possible == 12
    assert census.actual == 12
    assert census.per_clause_bound == 21


def test_census_formulas():
    f = random_formula(100, 4.25, seed=5)
    space = build_space(f)
    census = space_census(space)
    assert census.possible == 19800
    assert census.per_clause_bound == 1275
    assert float(census.ratio) == pytest.approx(12.75 / 198)


def test_census_minimum_n():
    f2 = formula(2, [], width=3)
    assert space_census(build_space(f2)).possible == 4
    f1 = formula(1, [], width=3)
    with pytest.raises(ValueError):
        space_census(build_space(f1))


def test_census_bounds_property():
    for seed in range(50):
        f = random_formula(random.Random(seed).randint(4, 30), 4.25, seed=seed)
        space = build_space(f)
        census = space_census(space)
        assert census.actual <= min(census.per_clause_bound, census.possible)


def test_interaction_matrix_spec_example():
    # s0 = (x2 v -x3) created by -x0 (from clause (x0 v x2 v -x3)) and by
    # -x1 (from clause (x1 v x2 v -x3)).
    f = formula(4, [clause("x0 x2 -x3"), clause("x1 x2 -x3")])
    space = build_space(f)
    matrix = interaction_matrix(space)
    s0 = subclause_id(space, clause("x2 -x3"))
    cell = lambda name: cell_of(matrix, s0, name)
    assert cell("-x0") == "c" and cell("-x1") == "c"
    assert cell("-x2") == "-x3"
    assert cell("x2") == "s" and cell("-x3") == "s"
    assert cell("x3") == "x2"
    assert cell("x0") == "" and cell("x1") == ""


def test_interaction_matrix_f3_row(f3_space, from_paper):
    matrix = interaction_matrix(f3_space)
    (s8,) = from_paper({8})  # (-x1 v -x2)
    cell = lambda name: cell_of(matrix, s8, name)
    assert cell("x0") == "c" and cell("-x0") == "c"
    assert cell("-x1") == "s" and cell("-x2") == "s"
    assert cell("x1") == "-x2"
    assert cell("x2") == "-x1"


def test_interaction_matrix_row_counts():
    f = random_formula(10, 4.25, seed=2)
    space = build_space(f)
    matrix = interaction_matrix(space)
    for row in matrix.cells:
        assert sum(1 for c in row if c == "c") >= 1
        assert sum(1 for c in row if c == "s") == 2
        assert sum(1 for c in row if c not in ("", "c", "s")) == 2


def test_interaction_matrix_csv_layout(f3_space):
    csv_text = interaction_matrix(f3_space).to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "subclause,-x0,x0,-x1,x1,-x2,x2"
    assert len(lines) == 13
    assert lines[1].startswith("s0,")


def test_interaction_matrix_empty():
    space = build_space(formula(0, []))
    csv_text = interaction_matrix(space).to_csv()
    assert csv_text == "subclause\n"


def reference_cells(space):
    """The per-cell rule interaction_matrix used to apply, kept as its oracle:
    every cell compares its column literal with the row's creators, then its
    two literals, then their negations."""
    cells = []
    for (p, q), events in zip(space.pairs, space.events()):
        creators = {creator for creator, _ in events}
        row = []
        for lit in (make_literal(v, neg) for v in range(space.n) for neg in (True, False)):
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
    return cells


@st.composite
def hand_built_formulas(draw):
    """Formula(n, clauses) over arbitrary literal triples, n 0-6: repeated
    literals, tautologies and repeated clauses, which random_formula never
    draws."""
    n = draw(st.integers(0, 6))
    if not n:
        return Formula(0, ())
    triple = st.tuples(*[st.integers(0, 2 * n - 1)] * 3)
    clauses = draw(st.lists(triple, max_size=8))
    repeats = draw(st.lists(st.sampled_from(clauses), max_size=3)) if clauses else []
    return Formula(n, tuple(clauses + repeats))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(formulas(n_range=(3, 6), ratios=(1, 2.5, 4.25, 6)), hand_built_formulas()))
@example(Formula(2, ((0, 0, 2),)))   # the pair (x0, x0)
@example(Formula(2, ((0, 1, 2),)))   # the pair (x0, -x0)
def test_interaction_matrix_matches_the_per_cell_rule(f):
    space = build_space(f)
    matrix = interaction_matrix(space)
    assert matrix.columns == [make_literal(v, neg) for v in range(f.n) for neg in (True, False)]
    assert matrix.cells == reference_cells(space)


def test_space_ids_follow_scan_order(f3, f3_space):
    # First clause is (-x0 v -x1 v -x2); removing its literals in clause order
    # yields the first three ids.
    assert f3_space.pairs[0] == clause("-x1 -x2")
    assert f3_space.pairs[1] == clause("-x0 -x2")
    assert f3_space.pairs[2] == clause("-x0 -x1")
    assert f3_space.events()[0][0] == (parse_literal("x0"), 0)


def reference_space(f):
    """The set-based builder the flat space replaced, kept as its oracle:
    per sub-clause its creator set, parent set and (creator, parent) records;
    per literal the sets of ids it creates and of ids containing it."""
    pairs, index, creators, parents, records = [], {}, [], [], []
    created_by = {lit: set() for lit in range(2 * f.n)}
    containing = {lit: set() for lit in range(2 * f.n)}
    for cid, c in enumerate(f.clauses):
        for removed in c:
            pair = tuple(lit for lit in c if lit != removed)
            creator = negate(removed)
            sid = index.get(pair)
            if sid is None:
                sid = len(pairs)
                index[pair] = sid
                pairs.append(pair)
                creators.append(set())
                parents.append(set())
                records.append([])
                for lit in pair:
                    containing[lit].add(sid)
            creators[sid].add(creator)
            parents[sid].add(cid)
            records[sid].append((creator, cid))
            created_by[creator].add(sid)
    return pairs, index, creators, parents, records, created_by, containing


def assert_matches_reference(f):
    space = build_space(f)
    pairs, index, creators, parents, records, created_by, contains = reference_space(f)
    assert space.pairs == pairs
    assert dict(zip(space.pairs, range(len(space)))) == index
    assert all(subclause_id(space, pair) == sid for pair, sid in index.items())
    events = space.events()
    assert events == records
    subsat = Formula(f.n, tuple(space.pairs), width=2).occurrences()
    for lit in range(2 * f.n):
        assert set(space.created_by[lit]) == created_by[lit]
        assert len(space.created_by[lit]) == len(created_by[lit])
        assert containing(space)[lit] == subsat[lit] == sorted(contains[lit])
        assert space.solved_count[lit] == len(contains[lit])
    assert [{creator for creator, _ in sid_events} for sid_events in events] == creators
    assert [{parent for _, parent in sid_events} for sid_events in events] == parents
    th = thresholds(space)
    sizes = [(len(created_by[2 * v]), len(created_by[2 * v + 1])) for v in range(f.n)]
    assert (th.minimum, th.maximum) == (sum(map(min, sizes)), sum(map(max, sizes)))


def test_space_matches_reference_with_repeated_clauses(f3):
    # Clause 0 appears three times and clause 4 twice: each repeat adds
    # events and parents, but no creator and no created_by entry.
    f = Formula(n=3, clauses=(f3.clauses[0],) + f3.clauses + (f3.clauses[4], f3.clauses[0]))
    assert_matches_reference(f)
    space = build_space(f)
    sid = subclause_id(space, clause("-x1 -x2"))
    assert space.events()[sid] == [(parse_literal("x0"), 0), (parse_literal("x0"), 1),
                                   (parse_literal("-x0"), 6), (parse_literal("x0"), 9)]
    assert space.created_by[parse_literal("x0")].count(sid) == 1


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 30), ratios=(1, 2.5, 4.25, 6)))
def test_space_matches_reference(f):
    assert_matches_reference(f)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 30), ratios=(1, 2.5, 4.25, 6)))
@example(formula(4, [clause("x0 -x1 x2"), clause("x3 x2 -x1"), clause("x2 x0 -x1")]))
@example(Formula(n=3, clauses=((0, 0, 2), (0, 1, 4), (3, 3, 3))))
def test_solved_count_counts_the_containing_subclauses(f):
    # A repeated literal makes a pair (l, l), which contains l twice.
    space = build_space(f)
    solved_count = space.solved_count
    assert set(vars(space)) == {"n", "clauses", "pairs", "created_by", "solved_count"}
    for lit in range(2 * f.n):
        assert solved_count[lit] == len(containing(space)[lit])
