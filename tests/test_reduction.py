import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import (Formula, HypothesisError, assignment_satisfies_2sat, build_space,
                      check_consistent, decompose, evaluate, formula, make_literal, negate,
                      parse_literal, random_assignment, random_formula, reduce_to_2sat,
                      solve_2sat, solve_exhaustive, verify_corollary1, verify_theorem)
from hypersat.formula import var_of
from hypersat.reduction import provenance

from conftest import clause, formulas, lits


def reduce_ksat(f, a):
    """The width-k generalization of reduce_to_2sat, kept as its reference:
    drop negate(lit) from every clause containing it, for each assigned lit,
    giving a width-(k-1) formula with duplicates merged. O(|a| * m)."""
    a = check_consistent(a)
    reduced = {}
    for lit in sorted(a):
        for c in f.clauses:
            if negate(lit) in c:
                reduced.setdefault(tuple(x for x in c if x != negate(lit)), None)
    return Formula(n=f.n, clauses=tuple(reduced), width=f.width - 1)


def reduce_with_provenance(space, f, a):
    """The eager loop that built the reduction and its provenance together,
    kept as the reference for reduce_to_2sat and provenance: the activated
    sub-clauses in ascending id order, each with the events whose creator is
    assigned."""
    a = check_consistent(a)
    clauses = []
    events_by_pair = {}
    for sid in sorted(space.activated(a)):
        pair = space.pairs[sid]
        events = tuple((creator, parent) for creator, parent in space.events_of(sid)
                       if creator in a)
        for creator, parent in events:
            assert set(pair) == set(f.clauses[parent]) - {negate(creator)}
        clauses.append(pair)
        events_by_pair[pair] = events
    return Formula(n=f.n, clauses=tuple(clauses), width=2), events_by_pair


@pytest.mark.parametrize("complete", [True, False], ids=["complete", "partial"])
@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(f=formulas(n_range=(3, 14), ratios=(1, 2, 4.25)), data=st.data())
def test_reduce_and_provenance_match_eager_loop(complete, f, data):
    a = random_assignment(f.n, seed=data.draw(st.integers(0, 2**30)))
    if not complete:
        keep = data.draw(st.integers(0, f.n - 1))
        a = frozenset(random.Random(data.draw(st.integers(0, 2**30))).sample(sorted(a), keep))
    space = build_space(f)
    expected, expected_events = reduce_with_provenance(space, f, a)
    t = reduce_to_2sat(space, f, a)
    assert t == expected    # same clauses in the same order, width 2
    events = provenance(space, f, a)
    assert list(events.items()) == list(expected_events.items())
    assert list(events) == list(t.clauses)


def test_provenance_lists_every_copy_of_a_repeated_clause(f3):
    f = Formula(n=3, clauses=f3.clauses + (f3.clauses[0],))
    a = lits("x0", "x1", "x2")
    events = provenance(build_space(f), f, a)
    assert events[clause("-x1 -x2")] == ((parse_literal("x0"), 0), (parse_literal("x0"), 7))


def test_reduce_satisfying_f3(f3, f3_space):
    a = lits("-x0", "-x1", "x2")
    t = reduce_to_2sat(f3_space, f3, a)
    expected = {clause(p) for p in (
        "-x0 -x1", "-x0 x1", "-x0 -x2", "-x0 x2", "x0 -x1",
        "x0 x2", "-x1 -x2", "-x1 x2", "x1 x2")}
    assert set(t.clauses) == expected
    assert t.m == 9
    assert assignment_satisfies_2sat(t, a) == []


def test_reduce_unsatisfying_f3(f3, f3_space):
    a = lits("-x0", "x1", "x2")
    t = reduce_to_2sat(f3_space, f3, a)
    assert t.m == 10
    expected = {clause(p) for p in (
        "-x0 -x1", "-x0 x1", "-x0 -x2", "-x0 x2", "x0 -x1",
        "x0 -x2", "x0 x2", "-x1 -x2", "-x1 x2", "x1 x2")}
    assert set(t.clauses) == expected
    violated = {frozenset(pair) for pair in assignment_satisfies_2sat(t, a)}
    assert violated == {frozenset(clause("x0 -x1")), frozenset(clause("x0 -x2")),
                        frozenset(clause("-x1 -x2"))}


def test_reduce_empty_assignment(f3, f3_space):
    t = reduce_to_2sat(f3_space, f3, frozenset())
    assert t.m == 0
    assert solve_2sat(t).satisfiable


def test_reduce_provenance(f3, f3_space):
    a = lits("-x0", "-x1", "x2")
    for pair, events in provenance(f3_space, f3, a).items():
        assert events
        for creator, parent in events:
            assert creator in a
            assert set(pair) == set(f3.clauses[parent]) - {negate(creator)}


def test_reduce_ksat_matches_reduce(f3, f3_space):
    for a in (lits("-x0", "-x1", "x2"), lits("-x0", "x1", "x2"), lits("x0", "x1", "-x2")):
        t = reduce_to_2sat(f3_space, f3, a)
        g = reduce_ksat(f3, a)
        assert g.width == 2
        assert set(g.clauses) == set(t.clauses)


def test_reduce_ksat_2_to_1():
    f2 = formula(3, [clause("x0 x1"), clause("-x0 x2"), clause("x1 x2")], width=2)
    solutions = solve_exhaustive(f2, cap=8)
    assert solutions
    for a in solutions:
        units = reduce_ksat(f2, a)
        assert units.width == 1
        assert all(c[0] in a for c in units.clauses)


def test_reduce_ksat_chain_ends_inside_assignment():
    rng = random.Random(13)
    checked = 0
    seed = 0
    while checked < 10:
        seed += 1
        f = random_formula(8, 4.25, seed=seed)
        solutions = solve_exhaustive(f, cap=2)
        if not solutions:
            continue
        for a in solutions:
            g2 = reduce_ksat(f, a)
            assert not assignment_satisfies_2sat(g2, a)
            g1 = reduce_ksat(g2, a)
            assert g1.width == 1
            assert all(c[0] in a for c in g1.clauses)
            checked += 1


def test_solve_2sat_forced_literal():
    t = formula(2, [clause("x0 x1"), clause("-x0 x1")], width=2)
    result = solve_2sat(t)
    assert result.satisfiable
    assert parse_literal("x1") in result.assignment


def test_solve_2sat_unsat_witness():
    t = formula(2, [clause("x0 x1"), clause("x0 -x1"), clause("-x0 x1"), clause("-x0 -x1")],
                width=2)
    result = solve_2sat(t)
    assert not result.satisfiable
    assert result.witness_variable in (0, 1)
    assert result.assignment is None


def test_solve_2sat_agrees_with_enumeration():
    rng = random.Random(29)
    ratios = (0.8, 1.2, 1.6, 2.0)
    sat_seen = unsat_seen = 0
    for i in range(150):
        n = rng.randint(2, 12)
        f = random_formula(n, ratios[i % 4], seed=rng.getrandbits(30), k=2)
        verdict = solve_2sat(f)
        oracle = bool(solve_exhaustive(f, cap=1))
        assert verdict.satisfiable == oracle
        if verdict.satisfiable:
            sat_seen += 1
            assert assignment_satisfies_2sat(f, verdict.assignment) == []
        else:
            unsat_seen += 1
    assert sat_seen and unsat_seen


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(2, 14), ratios=(0.5, 0.8, 1.2, 1.6, 2.0), k=2))
def test_solve_2sat_agrees_with_oracle_property(f):
    verdict = solve_2sat(f)
    assert verdict.satisfiable == bool(solve_exhaustive(f, cap=1))
    if verdict.satisfiable:
        assert assignment_satisfies_2sat(f, verdict.assignment) == []


def test_twosat_requires_width_2(f3):
    with pytest.raises(ValueError, match="width 3"):
        solve_2sat(f3)
    with pytest.raises(ValueError, match="width 3"):
        assignment_satisfies_2sat(f3, lits("-x0", "-x1", "x2"))


def test_assignment_satisfies_empty():
    t = Formula(n=3, clauses=(), width=2)
    assert assignment_satisfies_2sat(t, lits("x0")) == []


def test_verify_theorem_f3(f3):
    cert = verify_theorem(f3, lits("-x0", "-x1", "x2"), build_space(f3))
    assert cert.holds
    assert cert.t_clause_count == 9
    assert cert.provenance_checked >= 9
    assert cert.violated == ()


def test_verify_theorem_hypothesis_gate(f3):
    with pytest.raises(HypothesisError):
        verify_theorem(f3, lits("-x0", "x1", "x2"), build_space(f3))


def test_verify_theorem_over_oracle_assignments():
    rng = random.Random(37)
    checked = 0
    seed = 0
    while checked < 40:
        seed += 1
        f = random_formula(rng.randint(6, 10), 4.25, seed=seed)
        space = build_space(f)
        for a in solve_exhaustive(f, cap=5):
            assert verify_theorem(f, a, space).holds
            checked += 1


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 12), ratios=(2, 3, 4.25)))
def test_theorem_holds_for_every_oracle_solution(f):
    space = build_space(f)
    for a in solve_exhaustive(f, cap=1 << f.n):
        assert verify_theorem(f, a, space=space).holds


def test_verify_corollary1_f3(f3, to_paper):
    cert = verify_corollary1(f3, lits("-x0", "x1", "x2"), build_space(f3))
    assert cert.holds
    assert to_paper(cert.witnesses) == [4, 6, 8]
    assert cert.unsatisfied_clauses == (5,)


def test_verify_corollary1_hypothesis_gate(f3):
    with pytest.raises(HypothesisError):
        verify_corollary1(f3, lits("-x0", "-x1", "x2"), build_space(f3))


def test_verify_corollary1_random():
    rng = random.Random(43)
    checked = 0
    seed = 0
    while checked < 40:
        seed += 1
        f = random_formula(rng.randint(6, 10), 4.25, seed=seed)
        a = random_assignment(f.n, seed=rng.getrandbits(30))
        if not evaluate(f, a).unsatisfied_ids:
            continue
        assert verify_corollary1(f, a, build_space(f)).holds
        checked += 1


def test_corollary1_single_violated_clause_witnesses():
    # Force exactly one unsatisfied clause; its three sub-clauses under the
    # assignment's negated literals must all be witnessed.
    f = formula(4, [clause("x0 x1 x2"), clause("-x0 x1 x3"), clause("-x1 x2 x3")])
    space = build_space(f)
    a = lits("-x0", "-x1", "-x2", "x3")   # violates exactly clause 0
    report = evaluate(f, a)
    assert report.unsatisfied_ids == (0,)
    cert = verify_corollary1(f, a, space=space)
    violated_clause = f.clauses[0]
    for removed in violated_clause:
        sid = space.id_of(tuple(x for x in violated_clause if x != removed))
        assert sid in cert.witnesses
    assert cert.holds


def double_f3(f3):
    """Two variable-disjoint copies of the worked instance (x0..x2, x3..x5)."""
    shifted = [tuple(make_literal(var_of(lit) + 3, negative=bool(lit & 1)) for lit in c)
               for c in f3.clauses]
    return formula(6, list(f3.clauses) + shifted)


def test_decompose_disjoint_copies(f3):
    f = double_f3(f3)
    p = lits("-x0", "-x1", "x2")
    result = decompose(f, p, build_space(f))
    assert result.holds
    assert result.c1 == tuple(range(7))
    assert result.c2 == tuple(range(7, 14))
    assert result.l1 == frozenset(range(6))        # every literal over x0..x2
    assert result.l2 == frozenset(range(6, 12))    # every literal over x3..x5
    assert result.l1 != result.l2


def test_decompose_recovers_planted_blocks():
    rng = random.Random(53)
    built = 0
    seed = 0
    while built < 10:
        seed += 1
        left = random_formula(6, 3.0, seed=seed)
        right = random_formula(5, 3.0, seed=seed + 100)
        solutions = solve_exhaustive(left, cap=1)
        if not solutions:
            continue
        shifted = [tuple(make_literal(var_of(lit) + 6, negative=bool(lit & 1))
                         for lit in c) for c in right.clauses]
        f = formula(11, list(left.clauses) + shifted)
        p = solutions[0]
        result = decompose(f, p, build_space(f))
        assert result.holds
        assert set(result.c1) == set(range(left.m))
        assert set(result.c2) == set(range(left.m, left.m + right.m))
        built += 1


def test_decompose_hypothesis_failures(f3):
    f = double_f3(f3)
    # Leaves activated sub-clauses unsolved:
    with pytest.raises(HypothesisError, match="unsolved"):
        decompose(f, lits("-x0"), build_space(f))
    # Not partial:
    with pytest.raises(HypothesisError, match="partial"):
        decompose(f3, lits("-x0", "-x1", "x2"), build_space(f3))
    # Satisfies every clause (extra idle variable keeps it partial):
    wide = formula(4, list(f3.clauses))
    with pytest.raises(HypothesisError, match="satisfies"):
        decompose(wide, lits("-x0", "-x1", "x2"), build_space(wide))
