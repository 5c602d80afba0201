import hashlib
import itertools
import json
import random
import tracemalloc

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypersat import (Formula, build_hypernodal, build_space, evaluate, expand_literal,
                      expansion_to_dot, expansion_to_json, export_dot, family_to_dot,
                      find_contradictions, formula, generate_heuristic, make_literal,
                      merge_active, negate, parse_literal, random_assignment, random_formula,
                      reduce_to_2sat, solve_exhaustive)
from hypersat.formula import literal_str, var_of
from hypersat.hypernodal import (component_ids, conflicting_variables, implication_adjacency,
                                 merged_contradictions)

from conftest import clause, formulas, lits, subclause_id

from dotcheck import check_dot


def edge(a, b):
    return (parse_literal(a), parse_literal(b))


def implication_edges(pairs):
    """The implications of the clauses in the order given: each clause
    (l1 v l2) yields -l1 -> l2, then -l2 -> l1."""
    for l1, l2 in pairs:
        yield negate(l1), l2
        yield negate(l2), l1


def edge_set(adjacency):
    """The edges (u, v) of the graph whose successor lists are `adjacency`."""
    return frozenset((u, v) for u, successors in enumerate(adjacency) for v in successors)


def endpoints(adjacency):
    return {lit for e in edge_set(adjacency) for lit in e}


def test_literal_graph_f3_neg_x0(f3_space):
    graph = merge_active(build_hypernodal(f3_space), {parse_literal("-x0")})
    expected = {edge("x1", "-x2"), edge("x2", "-x1"),   # from (-x1 v -x2)
                edge("x1", "x2"), edge("-x2", "-x1"),   # from (-x1 v x2)
                edge("-x1", "x2"), edge("-x2", "x1")}   # from (x1 v x2)
    assert edge_set(graph) == expected
    assert len(graph) == 6
    assert endpoints(graph) == lits("x1", "-x1", "x2", "-x2")


def test_literal_graph_no_creations():
    f = formula(4, [clause("x0 x1 x2")])
    graph = merge_active(build_hypernodal(build_space(f)), {parse_literal("x3")})
    assert graph == [[] for _ in range(8)]
    assert edge_set(graph) == frozenset()


def test_literal_graph_edge_count():
    for seed in range(10):
        f = random_formula(8, 4.25, seed=seed)
        space = build_space(f)
        hg = build_hypernodal(space)
        for v in range(f.n):
            for lit in (make_literal(v), make_literal(v, True)):
                graph = merge_active(hg, {lit})
                assert len(edge_set(graph)) == 2 * len(set(space.created_by[lit]))


def test_implication_soundness():
    for seed in range(10):
        f = random_formula(8, 4.25, seed=seed)
        space = build_space(f)
        hg = build_hypernodal(space)
        for owner in range(2 * f.n):
            created_pairs = {frozenset(space.pairs[sid])
                             for sid in set(space.created_by[owner])}
            for u, v in edge_set(merge_active(hg, {owner})):
                assert frozenset((negate(u), v)) in created_pairs


def test_hypernodal_family(f3_space):
    hg = build_hypernodal(f3_space)
    assert hg.space is f3_space and hg.space.n == 3
    for owner in range(2 * hg.space.n):
        graph = merge_active(hg, {owner})
        assert len(graph) == 6
        assert endpoints(graph) <= set(range(6))  # nesting closure


def test_hypernodal_empty():
    hg = build_hypernodal(build_space(formula(0, [])))
    assert hg.space.n == 0
    assert merge_active(hg, frozenset()) == []


def test_merge_singleton(f3_space):
    hg = build_hypernodal(f3_space)
    lit = parse_literal("-x0")
    merged = merge_active(hg, lits("-x0"))
    own = sorted(f3_space.pairs[sid] for sid in f3_space.created_by[lit])
    assert merged == implication_adjacency(3, own)


def test_merge_monotonicity(f3_space):
    hg = build_hypernodal(f3_space)
    small = merge_active(hg, lits("-x0"))
    big = merge_active(hg, lits("-x0", "-x1", "x2"))
    assert edge_set(small) <= edge_set(big)


def test_merge_equals_reduction_implication_graph(f3, f3_space):
    hg = build_hypernodal(f3_space)
    a = lits("-x0", "-x1", "x2")
    merged = merge_active(hg, a)
    t = reduce_to_2sat(f3_space, f3, a)
    expected = set()
    for l1, l2 in t.clauses:
        expected.add((negate(l1), l2))
        expected.add((negate(l2), l1))
    assert edge_set(merged) == expected


def transitive_closure(adjacency):
    """Map node -> nodes reachable along a path of one or more edges: the
    quadratic reachability that scc_oracle builds on."""
    closure = {}
    for start, successors in enumerate(adjacency):
        seen = set()
        frontier = list(successors)
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency[node])
        closure[start] = frozenset(seen)
    return closure


def test_transitive_closure_chain():
    closure = transitive_closure([[1], [2], []])
    assert 2 in closure[0]
    assert closure[2] == frozenset()


def test_transitive_closure_empty():
    assert transitive_closure([]) == {}


def test_satisfying_merge_reaches_no_negation(f3, f3_space):
    hg = build_hypernodal(f3_space)
    a = lits("-x0", "-x1", "x2")
    closure = transitive_closure(merge_active(hg, a))
    for source in a:
        for target in a:
            assert negate(target) not in closure[source]


def scc_oracle(adjacency):
    """Mutual-reachability components via pairwise closure."""
    closure = transitive_closure(adjacency)
    nodes = range(len(adjacency))
    components = []
    seen = set()
    for u in nodes:
        if u in seen:
            continue
        comp = {u} | {v for v in nodes if u in closure[v] and v in closure[u]}
        seen |= comp
        components.append(frozenset(comp))
    return set(components)


def components(comp):
    """The partition of the nodes that component ids `comp` describe."""
    members = {}
    for node, comp_id in enumerate(comp):
        members.setdefault(comp_id, set()).add(node)
    return {frozenset(nodes) for nodes in members.values()}


def random_adjacency(rng, size):
    possible = [(u, v) for u in range(size) for v in range(size) if u != v]
    edges = rng.sample(possible, min(len(possible), rng.randint(0, 2 * size)))
    adjacency = [[] for _ in range(size)]
    for u, v in sorted(edges):
        adjacency[u].append(v)
    return adjacency


def test_scc_two_node_cycle():
    assert component_ids([[1], [0]]) == [0, 0]


def test_scc_dag_singletons():
    # Node 2 completes first and node 0 last.
    assert component_ids([[1, 2], [2], []]) == [2, 1, 0]


def test_scc_matches_oracle_on_random_graphs():
    rng = random.Random(61)
    for _ in range(60):
        adjacency = random_adjacency(rng, rng.randint(1, 12))
        comp = component_ids(adjacency)
        assert sorted(set(comp)) == list(range(len(set(comp))))
        assert components(comp) == scc_oracle(adjacency)


def test_scc_emission_is_reverse_topological():
    adjacency = [[1], [2], [1, 3], []]
    comp = component_ids(adjacency)
    for u, successors in enumerate(adjacency):
        for v in successors:
            if comp[u] != comp[v]:
                assert comp[v] < comp[u]


def test_conflicting_variables_match_the_closure():
    # A variable conflicts iff each of its literals reaches the other.
    rng = random.Random(67)
    for _ in range(60):
        n = rng.randint(1, 6)
        adjacency = random_adjacency(rng, 2 * n)
        closure = transitive_closure(adjacency)
        expected = tuple(v for v in range(n)
                         if make_literal(v, True) in closure[make_literal(v)]
                         and make_literal(v) in closure[make_literal(v, True)])
        assert conflicting_variables(component_ids(adjacency)) == expected


def test_find_contradictions_f3(f3_space, to_paper):
    hg = build_hypernodal(f3_space)
    good = find_contradictions(hg, lits("-x0", "-x1", "x2"))
    assert good.consistent
    assert good.witness_paths == () and good.escaped_implications == ()
    bad = find_contradictions(hg, lits("-x0", "x1", "x2"))
    assert not bad.consistent
    assert bad.escaped_implications != ()
    # Each escaped implication corresponds to an unsolved activated sub-clause.
    unsolved = {4, 6, 8}
    for u, v in bad.escaped_implications:
        sid = subclause_id(f3_space, (negate(u), v))
        assert to_paper({sid})[0] in unsolved


def test_contradiction_report_namespace_holds_its_three_tuples(f3_space):
    hg = build_hypernodal(f3_space)
    for a in (lits("-x0", "-x1", "x2"), lits("-x0", "x1", "x2"), lits("-x0", "-x1")):
        report = find_contradictions(hg, a)
        fields = vars(report)
        assert list(fields) == ["witness_paths", "scc_conflicts", "escaped_implications"]
        assert all(isinstance(value, tuple) for value in fields.values())
        assert report.consistent == (not (fields["witness_paths"] or fields["scc_conflicts"]))
    # -x0 -> x2 and -x1 -> x2 escape {-x0, -x1}: they force x2, which
    # completes the unique solution, so the partial assignment is consistent.
    assert report.escaped_implications == (edge("-x0", "x2"), edge("-x1", "x2"))
    assert report.consistent


def test_find_contradictions_matches_reduction_verdict():
    rng = random.Random(67)
    agree = 0
    for _ in range(80):
        n = rng.randint(4, 12)
        f = random_formula(n, 4.25, seed=rng.getrandbits(30))
        space = build_space(f)
        hg = build_hypernodal(space)
        a = random_assignment(n, seed=rng.getrandbits(30))
        report = find_contradictions(hg, a)
        t = reduce_to_2sat(space, f, a)
        from hypersat import assignment_satisfies_2sat
        assert report.consistent == (assignment_satisfies_2sat(t, a) == [])
        agree += 1
    assert agree == 80


def per_source_contradictions(hg, a):
    """The quadratic search find_contradictions replaced, kept as its oracle:
    a DFS from every assigned literal over the merged graph, and SCCs from
    pairwise closure. Returns (consistent, escaped, conflicts, negations
    reached); consistent means no negation reached and no conflict."""
    adjacency = merge_active(hg, a)
    escaped = tuple(sorted((u, v) for (u, v) in edge_set(adjacency) if u in a and v not in a))
    negations = {negate(lit) for lit in a}
    reached = set()
    for source in sorted(a):
        seen = set()
        frontier = list(adjacency[source])
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency[node])
        reached |= seen & negations
    conflicts = tuple(sorted({var_of(lit) for comp in scc_oracle(adjacency) for lit in comp
                              if negate(lit) in comp}))
    return not (reached or conflicts), escaped, conflicts, reached


@st.composite
def assignment_cases(draw):
    """(hypernodal graph, assignment): complete or partial assignments on
    small instances at ratios from under- to over-constrained."""
    n = draw(st.integers(4, 14))
    r = draw(st.sampled_from((2, 3, 4.25, 6)))
    f = random_formula(n, r, seed=draw(st.integers(0, 2**30)))
    complete = random_assignment(n, seed=draw(st.integers(0, 2**30)))
    kept = draw(st.sets(st.sampled_from(sorted(complete)))) if draw(st.booleans()) else complete
    return build_hypernodal(build_space(f)), frozenset(kept)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(assignment_cases())
def test_find_contradictions_matches_per_source_search(case):
    hg, a = case
    report = find_contradictions(hg, a)
    assert merged_contradictions(merge_active(hg, a), a) == report
    consistent, escaped, conflicts, reached = per_source_contradictions(hg, a)
    assert report.consistent == consistent
    assert report.escaped_implications == escaped
    assert report.scc_conflicts == conflicts
    assert {path[-1] for path in report.witness_paths} == reached


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(assignment_cases())
def test_witness_paths_follow_merged_edges(case):
    hg, a = case
    edges = edge_set(merge_active(hg, a))
    report = find_contradictions(hg, a)
    ends = [path[-1] for path in report.witness_paths]
    assert ends == sorted(set(ends))
    for path in report.witness_paths:
        assert len(path) >= 2
        assert path[0] in a
        assert negate(path[-1]) in a
        assert set(path[1:]).isdisjoint(a)  # shortest from the assignment as a whole
        for u, v in zip(path, path[1:]):
            assert (u, v) in edges


def test_find_contradictions_partial_conflict_without_escape():
    # x0 creates all four sub-clauses over x1, x2: x1 and x2 are each
    # equivalent to their negation, but no edge leaves the assignment {x0}.
    f = formula(3, [clause("x1 x2 -x0"), clause("x1 -x2 -x0"),
                    clause("-x1 x2 -x0"), clause("-x1 -x2 -x0")])
    hg = build_hypernodal(build_space(f))
    report = find_contradictions(hg, lits("x0"))
    assert report.escaped_implications == () and report.witness_paths == ()
    assert report.scc_conflicts == (1, 2)
    assert not report.consistent
    assert find_contradictions(hg, lits("-x0")).consistent


def extends_to_a_solution(space, a):
    """The exhaustive oracle's verdict on whether `a` extends to a solution
    of its 2-SAT formula: reduce_to_2sat(space, f, a) with a unit clause
    (l v l) per assigned literal l."""
    t = reduce_to_2sat(space, Formula(space.n, space.clauses), a)
    units = tuple((lit, lit) for lit in sorted(a))
    return bool(solve_exhaustive(Formula(t.n, t.clauses + units, width=2), cap=1))


def check_partial_verdict(space, a):
    """`consistent` is the oracle's extension verdict, and two one-way
    statements tie it to the unsolved activated sub-clauses.
    (P1) None unsolved implies consistent. An edge x -> y comes from the
    solved sub-clause (-x v y), so y is assigned unless -x is. A walk is
    therefore assigned from its first assigned literal on, or after its
    first edge if it starts unassigned, so a witness path, or a cycle
    through both literals of a variable, would assign both.
    (P2) A witness path or an escaped edge implies one unsolved. A witness
    path's first edge escapes, and an escaped edge u -> v comes from the
    sub-clause (-u v), neither literal of which is assigned."""
    report = find_contradictions(build_hypernodal(space), a)
    assert report.consistent == extends_to_a_solution(space, a)
    unsolved = space.unsolved(a)
    assert unsolved or report.consistent
    assert unsolved or not (report.witness_paths or report.escaped_implications)


def test_contradictions_on_every_partial_assignment_of_every_small_formula():
    # Bounded-exhaustive, after the small-scope hypothesis: every multiset of
    # 1-2 width-3 clauses over 4 variables under each of the 81 assignments
    # that set each variable true, false or not at all.
    clauses = [tuple(make_literal(v, neg) for v, neg in zip(variables, signs))
               for variables in itertools.combinations(range(4), 3)
               for signs in itertools.product((False, True), repeat=3)]
    assignments = [frozenset(make_literal(v, value == 2) for v, value in enumerate(values) if value)
                   for values in itertools.product(range(3), repeat=4)]
    checks = 0
    for size in (1, 2):
        for chosen in itertools.combinations_with_replacement(clauses, size):
            space = build_space(formula(4, chosen))
            for a in assignments:
                check_partial_verdict(space, a)
                checks += 1
    assert checks == 560 * 81


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(assignment_cases())
def test_consistent_means_the_assignment_extends_to_a_2sat_solution(case):
    hg, a = case
    check_partial_verdict(hg.space, a)


@st.composite
def solution_cases(draw):
    """(space, assignment): an instance with n 4-12 that the oracle solves,
    and one of its first eight solutions or a subset of it."""
    n = draw(st.integers(4, 12))
    f = random_formula(n, draw(st.sampled_from((2, 3, 4.25))),
                       seed=draw(st.integers(0, 2**30)))
    solutions = solve_exhaustive(f, cap=8)
    assume(solutions)
    solution = draw(st.sampled_from(solutions))
    kept = draw(st.sets(st.sampled_from(sorted(solution)))) if draw(st.booleans()) else solution
    return build_space(f), frozenset(kept)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(solution_cases())
def test_every_sub_assignment_of_a_solution_is_consistent(case):
    space, a = case
    assert find_contradictions(build_hypernodal(space), a).consistent


def test_implication_adjacency_equals_merged_edges():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(4, 14)
        f = random_formula(n, rng.choice((2, 3, 4.25, 6)), seed=rng.getrandbits(30))
        space = build_space(f)
        hg = build_hypernodal(space)
        a = random_assignment(n, seed=rng.getrandbits(30))
        adjacency = implication_adjacency(n, reduce_to_2sat(space, f, a).clauses)
        assert len(adjacency) == 2 * n
        assert {(u, v) for u, succ in enumerate(adjacency) for v in succ} == \
            edge_set(merge_active(hg, a))


@st.composite
def merge_cases(draw):
    """(space, assignment): a formula from random_formula, with repeated
    clauses in some draws, or from formula() over drawn literals, n 3-30, and
    a complete or a partial assignment."""
    if draw(st.booleans()):
        f = draw(formulas(n_range=(3, 30), ratios=(1, 2.5, 4.25, 6)))
    else:
        n = draw(st.integers(3, 30))
        literals = st.lists(st.integers(0, 2 * n - 1), min_size=3, max_size=3,
                            unique_by=var_of)
        f = formula(n, draw(st.lists(literals, max_size=4 * n)))
    complete = random_assignment(f.n, seed=draw(st.integers(0, 2**30)))
    kept = draw(st.sets(st.sampled_from(sorted(complete)))) if draw(st.booleans()) else complete
    return build_space(f), frozenset(kept)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(merge_cases())
def test_merge_active_lists_the_sorted_subclauses_ascending(case):
    space, a = case
    adjacency = merge_active(build_hypernodal(space), a)
    activated = {sid for lit in a for sid in space.created_by[lit]}
    assert adjacency == implication_adjacency(space.n, sorted(space.pairs[sid] for sid in activated))
    assert all(u < v for out in adjacency for u, v in zip(out, out[1:]))


def test_find_contradictions_reports_are_pinned():
    # Successor order fixes SCC numbering and which of several shortest
    # witness paths the search finds, so full reports on fixed cases are pinned.
    rng = random.Random(73)
    h = hashlib.sha256()
    for _ in range(60):
        n = rng.randint(6, 30)
        f = random_formula(n, rng.choice((2, 3, 4.25, 6)), seed=rng.getrandbits(30))
        a = random_assignment(n, seed=rng.getrandbits(30))
        if rng.random() < 0.5:
            a = frozenset(lit for lit in a if rng.random() < 0.6)
        h.update(repr(find_contradictions(build_hypernodal(build_space(f)), a)).encode())
    assert h.hexdigest()[:16] == "68fab93b5e82cbc5"


def expand_tree(space, lit, depth, level=0):
    """The recursive builder expand_literal replaced, kept as its reference:
    the expansion tree of lit to depth as nested (literal, truncated,
    ((sid, left, right), ...)) tuples. A literal that creates sub-clauses
    conjoins them, ascending by id, below depth and is marked truncated at
    depth; one that creates none is a leaf."""
    created = sorted(space.created_by[lit])
    if not created:
        return (lit, False, ())
    if level >= depth:
        return (lit, True, ())
    return (lit, False, tuple((sid, expand_tree(space, space.pairs[sid][0], depth, level + 1),
                               expand_tree(space, space.pairs[sid][1], depth, level + 1))
                              for sid in created))


def unfold(expansion):
    """The expansion tree read back from an Expansion alone, in expand_tree's
    form."""
    created = {}
    for sc in expansion.subclauses:
        for creator in sc.creators:
            created.setdefault(creator, []).append(sc)

    def node(lit, level):
        if level >= expansion.depth:
            return (lit, lit in expansion.truncated or lit in created, ())
        return (lit, False, tuple((sc.sid, node(sc.literals[0], level + 1),
                                   node(sc.literals[1], level + 1))
                                  for sc in sorted(created.get(lit, ()), key=lambda sc: sc.sid)))

    return node(expansion.root, 0)


def tree_nodes(tree, level=0):
    """(literal or sub-clause id, level, parent literal) for every node of a
    tree in expand_tree's form; a sub-clause has its parent's level."""
    lit, _, children = tree
    yield ("literal", lit), level, None
    for sid, left, right in children:
        yield ("subclause", sid), level, lit
        yield from tree_nodes(left, level + 1)
        yield from tree_nodes(right, level + 1)


def expansion_nodes(expansion):
    """The same view of an Expansion: each node with its first level and the
    literals it is expanded from."""
    nodes = {("literal", lit): (level, set()) for lit, level in expansion.levels.items()}
    nodes.update({("subclause", sc.sid): (expansion.levels[sc.creators[0]], set(sc.creators))
                  for sc in expansion.subclauses})
    return nodes


def test_expand_depth_zero(f3_space):
    expansion = expand_literal(f3_space, parse_literal("x0"), 0)
    assert expansion.levels == {parse_literal("x0"): 0}
    assert expansion.subclauses == ()
    assert expansion.truncated == lits("x0")


def test_expand_depth_zero_no_creations():
    f = formula(4, [clause("x0 x1 x2")])
    space = build_space(f)
    expansion = expand_literal(space, parse_literal("x3"), 0)
    assert expansion.levels == {parse_literal("x3"): 0}
    assert expansion.truncated == frozenset()


def test_expand_f3_depth_one(f3_space, to_paper):
    x0 = parse_literal("x0")
    expansion = expand_literal(f3_space, x0, 1)
    sids = [sc.sid for sc in expansion.subclauses]
    assert sids == sorted(sids) and to_paper(sids) == [8, 9, 10, 11]
    for sc in expansion.subclauses:
        assert sc.creators == (x0,)
        assert sc.literals == f3_space.pairs[sc.sid]
    assert expansion.levels == {x0: 0, **{lit: 1 for lit in lits("x1", "-x1", "x2", "-x2")}}
    assert expansion.truncated == {lit for lit in lits("x1", "-x1", "x2", "-x2")
                                   if f3_space.created_by[lit]}


def test_expansion_prefix_property(f3_space):
    for lit_name in ("x0", "-x1", "x2"):
        lit = parse_literal(lit_name)
        for depth in range(3):
            shallow = expand_literal(f3_space, lit, depth)
            deep = expand_literal(f3_space, lit, depth + 1)
            assert shallow.levels == {x: level for x, level in deep.levels.items()
                                      if level <= depth}
            assert shallow.subclauses == tuple(
                sc._replace(creators=tuple(x for x in sc.creators if deep.levels[x] < depth))
                for sc in deep.subclauses if deep.levels[sc.creators[0]] < depth)


def truncated_leaves(tree):
    lit, truncated, children = tree
    return {lit} if truncated else {x for _, left, right in children
                                    for x in truncated_leaves(left) | truncated_leaves(right)}


def test_expansion_truncation_accounting(f3_space):
    for depth in range(4):
        expansion = expand_literal(f3_space, parse_literal("x0"), depth)
        assert expansion.truncated == {lit for lit, level in expansion.levels.items()
                                       if level == depth and f3_space.created_by[lit]}
        assert expansion.truncated <= truncated_leaves(
            expand_tree(f3_space, parse_literal("x0"), depth))


expansion_cases = (formulas(n_range=(3, 9), ratios=(1, 2.5, 4.25)), st.integers(0, 4), st.data())


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(*expansion_cases)
def test_expansion_unfolds_to_the_reference_tree(f, depth, data):
    space = build_space(f)
    lit = data.draw(st.integers(0, 2 * f.n - 1))
    assert unfold(expand_literal(space, lit, depth)) == expand_tree(space, lit, depth)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(*expansion_cases)
def test_expansion_size_counts_the_tree(f, depth, data):
    # Each node of the tree is recorded once, at the first level the tree
    # holds it, with every literal the tree expands into it.
    space = build_space(f)
    lit = data.draw(st.integers(0, 2 * f.n - 1))
    expected = {}
    for key, level, parent in tree_nodes(expand_tree(space, lit, depth)):
        first, parents = expected.setdefault(key, (level, set()))
        expected[key] = (min(first, level), parents | ({parent} if parent is not None else set()))
    expansion = expand_literal(space, lit, depth)
    assert expansion_nodes(expansion) == expected
    assert len(expansion.levels) <= 2 * f.n and len(expansion.subclauses) <= len(space)


def test_expansion_size_stops_once_the_tree_is_whole():
    f = formula(4, [clause("x0 x1 x2"), clause("-x0 x1 x3")])
    space = build_space(f)
    # -x0 creates (x1 v x2), whose literals create nothing: 4 nodes at any
    # depth from 1.
    whole = expand_literal(space, parse_literal("-x0"), 1)
    assert len(whole.levels) + len(whole.subclauses) == 4 and whole.truncated == frozenset()
    for depth in (2, 3, 50):
        assert expand_literal(space, parse_literal("-x0"), depth) == whole._replace(depth=depth)


def test_expansion_depth_past_the_cap_is_kept_when_the_tree_is_whole():
    # Any depth bound is accepted, however far past the levels the graph has.
    space = build_space(formula(4, [clause("x0 x1 x2"), clause("-x0 x1 x3")]))
    expansion = expand_literal(space, parse_literal("-x0"), 10**9)
    assert expansion.depth == expansion_to_json(expansion)["depth"] == 10**9
    assert len(expansion.levels) + len(expansion.subclauses) == 4


def test_expansion_is_linear_where_the_tree_was_exponential():
    # The tree of x0 had 382,093 nodes at depth 5 and 58,661,689 at depth 7.
    space = build_space(random_formula(100, 4.25, seed=1))
    lit = parse_literal("x0")
    whole = expand_literal(space, lit, 10**9)
    assert (len(whole.levels), len(whole.subclauses)) == (199, 1234)
    assert whole.truncated == frozenset()
    for depth in (5, 6, 7):
        expansion = expand_literal(space, lit, depth)
        assert len(expansion.levels) <= 2 * space.n
        assert len(expansion.subclauses) <= len(space)
    assert expand_literal(space, lit, 7) == whole._replace(depth=7)


def test_expansion_of_an_endless_chain_is_a_cycle():
    # x0 creates (x1 v x2) and x1 creates (x0 v x3): the tree grows by three
    # nodes per level for ever, and the graph is the cycle x0 -> (x1 v x2) ->
    # x1 -> (x0 v x3) -> x0.
    space = build_space(formula(4, [clause("-x0 x1 x2"), clause("x0 -x1 x3")]))
    x0, x1 = parse_literal("x0"), parse_literal("x1")
    cycle = expand_literal(space, x0, 2)
    assert cycle.levels == {x0: 0, x1: 1, parse_literal("x2"): 1, parse_literal("x3"): 2}
    assert [(sc.literals, sc.creators) for sc in cycle.subclauses] == [
        (space.pairs[subclause_id(space, clause("x1 x2"))], (x0,)),
        (space.pairs[subclause_id(space, clause("x0 x3"))], (x1,))]
    for depth in (2000, 10**9):
        expansion = expand_literal(space, x0, depth)
        assert expansion == cycle._replace(depth=depth)
        json.dumps(expansion_to_json(expansion), sort_keys=True, indent=2)
        check_dot(expansion_to_dot(expansion))


def test_expansion_json_schema(f3_space):
    payload = expansion_to_json(expand_literal(f3_space, parse_literal("x0"), 1))
    assert payload["root"] == "x0" and payload["depth"] == 1
    assert payload["levels"] == {"x0": 0, "x1": 1, "-x1": 1, "x2": 1, "-x2": 1}
    assert payload["truncated"] == ["-x1", "-x2", "x1", "x2"]
    assert len(payload["subclauses"]) == 4
    first = payload["subclauses"][0]
    assert set(first) == {"id", "level", "literals", "creators"}
    assert first["level"] == 0 and first["creators"] == ["x0"]
    assert first["literals"] == [literal_str(x) for x in f3_space.pairs[first["id"]]]


def test_export_dot_hypernodal(f3_space):
    hg = build_hypernodal(f3_space)
    text = family_to_dot(hg)
    check_dot(text)
    assert text.count('subgraph "cluster_I_') == 6
    assert 'subgraph "cluster_true"' in text
    assert 'subgraph "cluster_false"' in text
    assert "style=dotted" in text    # cross-edges
    assert "style=dashed" in text    # containment
    # Each literal's cluster holds the edges of its own graph, sorted.
    for owner in range(6):
        assert [line for line in text.splitlines()
                if line.startswith(f'      "g{owner}_n') and " -> " in line] == \
            [f'      "g{owner}_n{u}" -> "g{owner}_n{v}";'
             for u, v in sorted(edge_set(merge_active(hg, {owner})))]


def test_family_dot_chains_each_label_through_its_holders():
    # One dotted edge per consecutive pair of holders, not per pair: h - 1
    # for a label with h leaves, so fewer dotted edges than leaves.
    space = build_space(random_formula(30, 4.25, seed=2))
    text = family_to_dot(build_hypernodal(space))
    lines = text.splitlines()
    dotted = [line for line in lines if "style=dotted" in line]
    leaves = [line for line in lines if "style=dashed" in line]   # one per leaf
    assert 0 < len(dotted) < len(leaves)
    labels = {}
    for line in leaves:
        label = line.split(" -> ")[0].split("_n")[1]
        labels[label] = labels.get(label, 0) + 1
    assert len(dotted) == sum(h - 1 for h in labels.values())


def test_export_dot_empty_family():
    hg = build_hypernodal(build_space(formula(0, [])))
    text = family_to_dot(hg)
    check_dot(text)


def test_export_dot_merged(f3_space):
    hg = build_hypernodal(f3_space)
    merged = merge_active(hg, lits("-x0", "-x1", "x2"))
    text = export_dot(merged)
    check_dot(text)
    assert "->" in text


def reference_implication_adjacency(n, pairs):
    """The generator-driven build that implication_adjacency inlines, kept as
    its oracle: the edges of implication_edges, appended in order."""
    adjacency = [[] for _ in range(2 * n)]
    for u, v in implication_edges(pairs):
        adjacency[u].append(v)
    return adjacency


def reference_dot_merged(adjacency):
    """The merged-graph renderer export_dot replaced, kept as its oracle: the
    edges as a frozenset, one global sort, and every name through the general
    quoting."""
    def quote(name):
        return '"' + name.replace('"', '\\"') + '"'

    lines = ["digraph merged {"]
    edges = sorted(edge_set(adjacency))
    for node in sorted({lit for edge in edges for lit in edge}):
        lines.append(f"  {quote('n' + str(node))} [label={quote(literal_str(node))}];")
    for u, v in edges:
        lines.append(f"  {quote('n' + str(u))} -> {quote('n' + str(v))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(assignment_cases())
def test_merged_graph_layers_match_their_references(case):
    hg, a = case
    space = hg.space
    pairs = sorted(space.pairs[sid] for sid in space.activated(a))
    merged = merge_active(hg, a)
    assert merged == reference_implication_adjacency(space.n, pairs)
    text = export_dot(merged)
    assert text == reference_dot_merged(merged)
    check_dot(text)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(formulas(n_range=(2, 12), ratios=(0.5, 1, 2.5, 4.25), k=2))
def test_two_sat_graphs_with_repeated_clauses_match_their_references(t):
    # formulas() inserts up to three repeated clauses, so successor lists
    # repeat edges, which the DOT text lists once.
    graph = implication_adjacency(t.n, t.clauses)
    assert graph == reference_implication_adjacency(t.n, t.clauses)
    assert export_dot(graph) == reference_dot_merged(graph)


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(0, max(2 * n - 1, 0)), max_size=6 if n else 0),
    min_size=2 * n, max_size=2 * n)))
def test_dot_merged_matches_its_reference_on_any_successor_lists(adjacency):
    # Repeats, self-loops, unsorted successors and isolated nodes.
    assert export_dot(adjacency) == reference_dot_merged(adjacency)


def test_dot_merged_lists_a_repeated_clause_once_and_skips_isolated_nodes():
    t = Formula(n=3, clauses=(clause("x0 x1"), clause("x0 x1")), width=2)
    graph = implication_adjacency(t.n, t.clauses)
    assert graph == [[], [2, 2], [], [0, 0], [], []]
    assert export_dot(graph) == ('digraph merged {\n'
                                 '  "n0" [label="x0"];\n'
                                 '  "n1" [label="-x0"];\n'
                                 '  "n2" [label="x1"];\n'
                                 '  "n3" [label="-x1"];\n'
                                 '  "n1" -> "n2";\n'
                                 '  "n3" -> "n0";\n'
                                 '}\n')


def test_export_dot_holds_little_besides_its_output():
    # The merged graph of the contradictions path at n = 2000, whose text is
    # about 530 KB. The traced peak of the call, its output included, stays
    # under 5x the text; holding one string per edge besides the joined
    # text and the successor lists' copy comes to 6.9x.
    space = build_space(random_formula(2000, 4.25, seed=5))
    merged = merge_active(build_hypernodal(space), generate_heuristic(space, "minCreate"))
    tracemalloc.start()
    try:
        text = export_dot(merged)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * len(text)


def test_dot_merged_of_an_empty_graph():
    assert export_dot([]) == "digraph merged {\n}\n"
    assert export_dot([[] for _ in range(6)]) == "digraph merged {\n}\n"


def test_export_dot_expansion(f3_space):
    expansion = expand_literal(f3_space, parse_literal("x0"), 2)
    text = expansion_to_dot(expansion)
    check_dot(text)
    assert "(truncated)" in text
    # One DOT node per literal and sub-clause, each declared once.
    declared = [line for line in text.splitlines() if "[label=" in line]
    assert len(declared) == len(set(declared)) == len(expansion.levels) + len(expansion.subclauses)
