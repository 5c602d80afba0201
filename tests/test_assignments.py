import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import (Formula, build_space, consumption_rate, evaluate, excluded_literals,
                      formula, generate_greedy, generate_heuristic, literal_str,
                      make_literal, parse_literal, random_assignment, random_formula,
                      solve_exhaustive, subclause_count, subclause_total, thresholds,
                      unsolved_curve)
from hypersat.assignments import HEURISTICS
from hypersat.formula import var_of

from conftest import clause, containing, formulas, lits


def test_thresholds_f3(f3_space):
    th = thresholds(f3_space)
    assert th.minimum == 9
    assert th.maximum == 12


def test_thresholds_equal_counts():
    f = formula(3, [clause("x0 x1 x2"), clause("-x0 -x1 -x2")])
    th = thresholds(build_space(f))
    assert th.minimum == th.maximum == 3


def test_subclause_count_f3(f3_space, to_paper):
    sat = lits("-x0", "-x1", "x2")
    assert subclause_count(f3_space, sat) == 9
    assert to_paper(f3_space.activated(sat)) == [0, 1, 2, 3, 4, 7, 8, 9, 11]
    unsat = lits("-x0", "x1", "x2")
    assert subclause_count(f3_space, unsat) == 10
    assert subclause_count(f3_space, frozenset()) == 0


def test_subclause_total_equals_count_without_sharing(f3_space):
    a = lits("-x0", "-x1", "x2")
    assert subclause_total(f3_space, a) == subclause_count(f3_space, a) == 9


def test_subclause_total_counts_shared_creations_per_literal():
    # (x1 v x2) is created both by x0 (from clause (-x0 v x1 v x2)) and by
    # x3 (from clause (-x3 v x1 v x2)).
    f = formula(4, [clause("-x0 x1 x2"), clause("-x3 x1 x2")])
    space = build_space(f)
    a = lits("x0", "x3")
    assert subclause_count(space, a) == 1
    assert subclause_total(space, a) == 2


def test_threshold_sandwich_on_random_pairs():
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(5, 16)
        f = random_formula(n, 4.25, seed=rng.getrandbits(30))
        space = build_space(f)
        th = thresholds(space)
        a = random_assignment(n, seed=rng.getrandbits(30))
        assert th.minimum <= th.maximum
        assert th.minimum <= subclause_total(space, a) <= th.maximum
        assert subclause_count(space, a) <= th.maximum


def test_consumption_rate_f3(f3_space):
    assert consumption_rate(f3_space, lits("-x0", "-x1", "x2")) == pytest.approx(3.0)
    single = lits("-x0")
    assert consumption_rate(f3_space, single) == len(set(f3_space.created_by[parse_literal("-x0")]))
    with pytest.raises(ValueError):
        consumption_rate(f3_space, frozenset())


def test_heuristics_f3(f3_space):
    assert generate_heuristic(f3_space, "minCreate") == lits("-x0", "-x1", "x2")
    assert generate_heuristic(f3_space, "maxCreate") == lits("x0", "x1", "-x2")
    # All six literals solve four sub-clauses each, so the tie-break decides.
    assert generate_heuristic(f3_space, "maxSolve") == lits("x0", "x1", "x2")
    assert generate_heuristic(f3_space, "maxSolve", tie_break="false") == lits("-x0", "-x1", "-x2")
    assert generate_heuristic(f3_space, "minCreateMaxSolve") == lits("-x0", "-x1", "x2")


def test_unknown_heuristic(f3_space):
    with pytest.raises(ValueError):
        generate_heuristic(f3_space, "bogus")
    with pytest.raises(ValueError):
        generate_heuristic(f3_space, "minCreate", tie_break="maybe")


def test_greedy_f3(f3):
    a = generate_greedy(f3)
    assert evaluate(f3, a).fraction == 1.0
    assert a == lits("-x0", "-x1", "x2")
    dynamic = generate_greedy(f3, dynamic=True)
    assert evaluate(f3, dynamic).fraction == 1.0


def test_greedy_pure_literal():
    f = formula(3, [clause("x0 x1 x2"), clause("x0 -x1 x2"), clause("x0 x1 -x2")])
    a = generate_greedy(f)
    assert parse_literal("x0") in a


def test_greedy_empty_formula_uses_tie_break():
    f = formula(3, [])
    assert generate_greedy(f) == lits("x0", "x1", "x2")
    assert generate_greedy(f, tie_break="false") == lits("-x0", "-x1", "-x2")


def greedy_dynamic_scan(f, tie_break):
    """The O(n^2) construction, kept as the bucket queue's oracle: every step
    rescans all unfixed literals for the largest (count, preferred, -v)."""
    prefer_true = tie_break == "true"
    counts = [0] * (2 * f.n)
    for c in f.clauses:
        for lit in c:
            counts[lit] += 1
    occurrences = f.occurrences()
    clause_satisfied = [False] * f.m
    fixed = [False] * f.n
    out = []
    for _ in range(f.n):
        best_lit = None
        best = (-1, 0, 0)
        for v in range(f.n):
            if fixed[v]:
                continue
            for lit in (make_literal(v), make_literal(v, True)):
                preferred = (lit & 1) == (0 if prefer_true else 1)
                key = (counts[lit], 1 if preferred else 0, -v)
                if key > best:
                    best, best_lit = key, lit
        fixed[var_of(best_lit)] = True
        out.append(best_lit)
        for cid in occurrences[best_lit]:
            if not clause_satisfied[cid]:
                clause_satisfied[cid] = True
                for lit in f.clauses[cid]:
                    counts[lit] -= 1
    return frozenset(out)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 60), ratios=(1, 2.5, 4.25, 6)))
def test_greedy_dynamic_matches_scan_oracle(f):
    for tie_break in ("true", "false"):
        assert generate_greedy(f, tie_break=tie_break, dynamic=True) == \
            greedy_dynamic_scan(f, tie_break)


# Instances whose top count reaches 0 with variables still unfixed; those
# take the preferred polarity. Expected sets under tie-breaks true, false.
COUNT_ZERO_CASES = {
    "unused variables": (5, ["x0 x1 x2"], ("x0 x1 x2 x3 x4", "x0 -x1 -x2 -x3 -x4")),
    "pure literal": (4, ["x0 x1 x2", "x0 -x1 x2", "x0 x1 -x2"],
                     ("x0 x1 x2 x3", "x0 -x1 -x2 -x3")),
    "repeated clause": (4, ["-x0 x1 x2", "-x0 x1 x2", "x0 -x1 x3"],
                        ("x0 x1 x2 x3", "-x0 -x1 -x2 -x3")),
}


@pytest.mark.parametrize("n, clauses, expected", COUNT_ZERO_CASES.values(),
                         ids=COUNT_ZERO_CASES)
def test_dynamic_greedy_gives_count_zero_variables_the_preferred_polarity(n, clauses,
                                                                          expected):
    f = formula(n, [clause(text) for text in clauses])
    for tie_break, names in zip(("true", "false"), expected):
        a = generate_greedy(f, tie_break=tie_break, dynamic=True)
        assert a == greedy_dynamic_scan(f, tie_break) == lits(*names.split())


def heuristic_by_kind(space, kind, tie_break):
    """The per-variable comparison of created/solved counts, one branch per
    heuristic, that the shared polarity rule replaced; kept as its oracle."""
    prefer_true = tie_break == "true"
    contains = containing(space)
    chosen = []
    for v in range(space.n):
        pos, neg = make_literal(v), make_literal(v, True)
        created_pos = len(space.created_by[pos])
        created_neg = len(space.created_by[neg])
        solve_pos = len(contains[pos])
        solve_neg = len(contains[neg])
        if kind == "minCreate":
            score_pos, score_neg = -created_pos, -created_neg
        elif kind == "maxCreate":
            score_pos, score_neg = created_pos, created_neg
        elif kind == "maxSolve":
            score_pos, score_neg = solve_pos, solve_neg
        else:  # minCreateMaxSolve
            score_pos, score_neg = solve_pos - created_pos, solve_neg - created_neg
        if score_pos > score_neg:
            chosen.append(pos)
        elif score_neg > score_pos:
            chosen.append(neg)
        else:
            chosen.append(pos if prefer_true else neg)
    return frozenset(chosen)


def greedy_static_loop(f, tie_break):
    """Static greedy as its own loop over clause-occurrence counts; the oracle
    of generate_greedy(dynamic=False)."""
    prefer_true = tie_break == "true"
    counts = [len(cids) for cids in f.occurrences()]
    out = []
    for v in range(f.n):
        pos, neg = make_literal(v), make_literal(v, True)
        if counts[pos] != counts[neg]:
            out.append(pos if counts[pos] > counts[neg] else neg)
        else:
            out.append(pos if prefer_true else neg)
    return frozenset(out)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(3, 60), ratios=(1, 2.5, 4.25, 6)))
def test_polarity_rule_matches_the_per_generator_oracles(f):
    space = build_space(f)
    for tie_break in ("true", "false"):
        for kind in HEURISTICS:
            assert generate_heuristic(space, kind, tie_break) == \
                heuristic_by_kind(space, kind, tie_break)
        assert generate_greedy(f, tie_break) == greedy_static_loop(f, tie_break)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.integers(4, 80), st.sampled_from((1, 2.5, 4.25, 6)), st.integers(0, 2**30))
def test_static_greedy_is_min_create_without_repeated_clauses(n, r, seed):
    # A literal creates one sub-clause per distinct clause holding its
    # negation, so fewest created is most clauses satisfied.
    f = random_formula(n, r, seed)
    space = build_space(f)
    for tie_break in ("true", "false"):
        assert generate_greedy(f, tie_break) == generate_heuristic(space, "minCreate", tie_break)


def test_static_greedy_counts_a_repeated_clause_that_min_create_does_not():
    # x0 holds three copies of one clause, -x0 two distinct clauses: greedy
    # counts 3 > 2 for x0, but x0 creates 2 sub-clauses and -x0 only 1. This
    # is why "greedy" stays a generator of its own for DIMACS input.
    f = formula(3, [clause("x0 x1 x2")] * 3 + [clause("-x0 x1 x2"), clause("-x0 -x1 x2")])
    space = build_space(f)
    for tie_break in ("true", "false"):
        assert parse_literal("x0") in generate_greedy(f, tie_break)
        assert parse_literal("-x0") in generate_heuristic(space, "minCreate", tie_break)


def test_random_assignment_deterministic():
    assert random_assignment(50, seed=9) == random_assignment(50, seed=9)
    assert random_assignment(0, seed=9) == frozenset()
    a = random_assignment(50, seed=9)
    assert len(a) == 50 and len({var_of(lit) for lit in a}) == 50


def test_random_assignment_mean_fraction():
    fractions = []
    for seed in range(40):
        f = random_formula(60, 4.25, seed=seed)
        fractions.append(evaluate(f, random_assignment(60, seed=seed + 1000)).fraction)
    assert statistics.fmean(fractions) == pytest.approx(7 / 8, abs=0.02)


def curve_oracle(space, order):
    """Definition-level recomputation: per step, activated is the union of
    created sets and satisfied the activated sub-clauses meeting the prefix."""
    out = []
    for t in range(1, len(order) + 1):
        prefix = set(order[:t])
        activated = set()
        for lit in prefix:
            activated |= set(space.created_by[lit])
        satisfied = {sid for sid in activated
                     if set(space.pairs[sid]) & prefix}
        out.append((len(activated), len(satisfied)))
    return out


def unsolved_curve_sets(space, order):
    """(activated, satisfied, open) per step from separate activated, solved,
    open and assigned sets, the bookkeeping unsolved_curve had before it
    derived solved as activated minus open; kept as its oracle."""
    activated, solved, open_ids, assigned = set(), set(), set(), set()
    contains = containing(space)
    out = []
    for lit in order:
        assigned.add(lit)
        for sid in contains[lit]:
            if sid in open_ids:
                open_ids.discard(sid)
                solved.add(sid)
        for sid in space.created_by[lit]:
            if sid in activated:
                continue
            activated.add(sid)
            p, q = space.pairs[sid]
            if p in assigned or q in assigned:
                solved.add(sid)
            else:
                open_ids.add(sid)
        out.append((len(activated), len(solved), len(activated) - len(solved)))
    return out


@st.composite
def hand_built_formulas(draw):
    """Width-3 formulas whose clauses are drawn literal by literal, so they
    repeat literals, hold tautologies and repeat clauses: the sub-clause a
    tautology (l v -l v x) leaves for -l contains -l, the literal that
    activates it."""
    n = draw(st.integers(1, 8))
    literal = st.integers(0, 2 * n - 1)
    clauses = draw(st.lists(st.tuples(literal, literal, literal), max_size=4 * n))
    return Formula(n=n, clauses=tuple(clauses))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.one_of(formulas(n_range=(3, 40), ratios=(1, 2.5, 4.25, 6)), hand_built_formulas()),
       st.randoms(use_true_random=False), st.booleans())
def test_unsolved_curve_matches_the_four_set_oracle(f, rng, partial):
    space = build_space(f)
    a = random_assignment(f.n, seed=rng.getrandbits(30))
    if partial:
        a = frozenset(lit for lit in a if rng.random() < 0.6)
    order = sorted(a, key=var_of)
    rng.shuffle(order)
    curve = unsolved_curve(space, order)
    assert [(s.activated, s.satisfied, s.open) for s in curve.steps] == \
        unsolved_curve_sets(space, order)


def test_unsolved_curve_f3(f3_space):
    order = [parse_literal(x) for x in ("-x0", "-x1", "x2")]
    curve = unsolved_curve(f3_space, order)
    assert curve.open_values() == [3, 2, 0]
    assert curve.inflection == 1
    assert [(s.activated, s.satisfied) for s in curve.steps] == curve_oracle(f3_space, order)


def test_unsolved_curve_matches_oracle_on_random_instances():
    rng = random.Random(23)
    for _ in range(20):
        n = rng.randint(4, 12)
        f = random_formula(n, 4.25, seed=rng.getrandbits(30))
        space = build_space(f)
        a = random_assignment(n, seed=rng.getrandbits(30))
        order = sorted(a, key=var_of)
        rng.shuffle(order)
        curve = unsolved_curve(space, order)
        assert [(s.activated, s.satisfied) for s in curve.steps] == curve_oracle(space, order)
        assert all(s.open >= 0 for s in curve.steps)


def test_unsolved_curve_terminal_zero_for_satisfying():
    rng = random.Random(31)
    checked = 0
    seed = 0
    while checked < 15:
        seed += 1
        f = random_formula(8, 4.25, seed=seed)
        solutions = solve_exhaustive(f, cap=3)
        if not solutions:
            continue
        space = build_space(f)
        for a in solutions:
            order = sorted(a, key=var_of)
            curve = unsolved_curve(space, order)
            assert curve.steps[-1].open == 0
            checked += 1


def test_unsolved_curve_rejects_an_order_that_is_no_assignment(f3_space):
    for names in (("-x0", "-x1", "-x0"), ("-x0", "-x1", "x0")):
        with pytest.raises(ValueError):
            unsolved_curve(f3_space, [parse_literal(x) for x in names])


def test_unsolved_curve_csv(f3_space):
    order = [parse_literal(x) for x in ("-x0", "-x1", "x2")]
    csv_text = unsolved_curve(f3_space, order).to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "step,literal,activated,satisfied,open"
    assert lines[1] == "1,-x0,3,0,3"
    assert lines[3] == "3,x2,9,9,0"


def test_excluded_literals_f3(f3_space, to_paper):
    report = excluded_literals(f3_space, lits("-x0", "x1", "x2"))
    assert to_paper(report.unsolved) == [4, 6, 8]
    assert report.excluded == lits("x2", "x1", "-x0")
    assert report.allowed == frozenset()


def test_excluded_literals_satisfying(f3_space):
    report = excluded_literals(f3_space, lits("-x0", "-x1", "x2"))
    assert report.unsolved == frozenset()
    assert report.excluded == frozenset()
    assert report.allowed == lits("-x0", "-x1", "x2")


def test_excluded_literals_partition_property():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(4, 12)
        f = random_formula(n, 4.25, seed=rng.getrandbits(30))
        space = build_space(f)
        a = random_assignment(n, seed=rng.getrandbits(30))
        report = excluded_literals(space, a)
        assert report.excluded | report.allowed == a
        assert not (report.excluded & report.allowed)
        for lit in report.excluded:
            assert set(space.created_by[lit]) & report.unsolved


def test_activated_equals_satisfied_for_satisfying_assignments():
    rng = random.Random(47)
    checked = 0
    seed = 0
    while checked < 15:
        seed += 1
        f = random_formula(9, 4.25, seed=seed)
        solutions = solve_exhaustive(f, cap=2)
        if not solutions:
            continue
        space = build_space(f)
        contains = containing(space)
        for a in solutions:
            activated = space.activated(a)
            solved_among_activated = set()
            for lit in a:
                solved_among_activated |= set(contains[lit]) & activated
            assert solved_among_activated == activated
            checked += 1


def test_heuristics_beat_random_on_average():
    diffs = []
    for seed in range(15):
        f = random_formula(60, 4.25, seed=seed)
        space = build_space(f)
        greedy = evaluate(f, generate_greedy(f)).fraction
        heuristic = evaluate(f, generate_heuristic(space, "minCreate")).fraction
        rand = evaluate(f, random_assignment(60, seed=seed + 500)).fraction
        diffs.append(min(greedy, heuristic) - rand)
    assert statistics.fmean(diffs) > 0.02
