import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypersat import (build_hypernodal, build_literal_graph, build_space, evaluate,
                      expand_literal, expansion_to_json, export_dot, find_contradictions,
                      formula, make_literal, merge_active, negate, parse_literal,
                      random_assignment, random_formula, reduce_to_2sat,
                      strongly_connected_components, transitive_closure)
from hypersat.formula import GuardrailError, literal_str, var_of
from hypersat.hypernodal import Digraph, ExpansionTree, LiteralNode, implication_adjacency

from conftest import clause, lits

from dotcheck import check_dot


def edge(a, b):
    return (parse_literal(a), parse_literal(b))


def test_literal_graph_f3_neg_x0(f3_space):
    graph = build_literal_graph(f3_space, parse_literal("-x0"))
    expected = {edge("x1", "-x2"), edge("x2", "-x1"),   # from (-x1 v -x2)
                edge("x1", "x2"), edge("-x2", "-x1"),   # from (-x1 v x2)
                edge("-x1", "x2"), edge("-x2", "x1")}   # from (x1 v x2)
    assert graph.edges == expected
    assert graph.owner == parse_literal("-x0")
    assert graph.nodes == lits("-x0", "x1", "-x1", "x2", "-x2")


def test_literal_graph_no_creations():
    f = formula(4, [clause("x0 x1 x2")])
    space = build_space(f)
    graph = build_literal_graph(space, parse_literal("x3"))
    assert graph.nodes == lits("x3")
    assert graph.edges == frozenset()


def test_literal_graph_edge_count():
    for seed in range(10):
        f = random_formula(8, 4.25, seed=seed)
        space = build_space(f)
        for v in range(f.n):
            for lit in (make_literal(v), make_literal(v, True)):
                graph = build_literal_graph(space, lit)
                assert len(graph.edges) == 2 * len(space.subclauses_of(lit))


def test_implication_soundness():
    for seed in range(10):
        f = random_formula(8, 4.25, seed=seed)
        space = build_space(f)
        hg = build_hypernodal(space)
        for owner, graph in hg.graphs.items():
            created_pairs = {frozenset(space.pairs[sid])
                             for sid in space.subclauses_of(owner)}
            for u, v in graph.edges:
                assert frozenset((negate(u), v)) in created_pairs


def test_hypernodal_family(f3_space):
    hg = build_hypernodal(f3_space)
    assert len(hg.graphs) == 6
    for graph in hg.graphs.values():
        for node in graph.nodes:
            assert node in hg.graphs  # nesting closure


def test_hypernodal_empty():
    hg = build_hypernodal(build_space(formula(0, [])))
    assert hg.graphs == {}


def test_merge_singleton(f3_space):
    hg = build_hypernodal(f3_space)
    lit = parse_literal("-x0")
    merged = merge_active(hg, lits("-x0"))
    assert merged.edges == hg.graphs[lit].edges


def test_merge_monotonicity(f3_space):
    hg = build_hypernodal(f3_space)
    small = merge_active(hg, lits("-x0"))
    big = merge_active(hg, lits("-x0", "-x1", "x2"))
    assert small.edges <= big.edges


def test_merge_equals_reduction_implication_graph(f3, f3_space):
    hg = build_hypernodal(f3_space)
    a = lits("-x0", "-x1", "x2")
    merged = merge_active(hg, a)
    t = reduce_to_2sat(f3_space, f3, a)
    expected = set()
    for l1, l2 in t.clauses:
        expected.add((negate(l1), l2))
        expected.add((negate(l2), l1))
    assert merged.edges == expected


def test_transitive_closure_chain():
    g = Digraph(nodes=(0, 1, 2), edges=frozenset({(0, 1), (1, 2)}))
    closure = transitive_closure(g)
    assert 2 in closure[0]
    assert closure[2] == frozenset()


def test_transitive_closure_empty():
    assert transitive_closure(Digraph(nodes=(), edges=frozenset())) == {}


def test_transitive_closure_guardrail():
    g = Digraph(nodes=tuple(range(2001)), edges=frozenset())
    with pytest.raises(GuardrailError):
        transitive_closure(g)


def test_satisfying_merge_reaches_no_negation(f3, f3_space):
    hg = build_hypernodal(f3_space)
    a = lits("-x0", "-x1", "x2")
    closure = transitive_closure(merge_active(hg, a))
    for source in a:
        for target in a:
            assert negate(target) not in closure[source]


def scc_oracle(g):
    """Mutual-reachability components via pairwise closure."""
    closure = transitive_closure(g)
    components = []
    seen = set()
    for u in g.nodes:
        if u in seen:
            continue
        comp = {u} | {v for v in g.nodes if u in closure[v] and v in closure[u]}
        seen |= comp
        components.append(frozenset(comp))
    return set(components)


def test_scc_two_node_cycle():
    g = Digraph(nodes=(0, 1), edges=frozenset({(0, 1), (1, 0)}))
    assert strongly_connected_components(g) == [(1, 0)] or \
        set(strongly_connected_components(g)[0]) == {0, 1}


def test_scc_dag_singletons():
    g = Digraph(nodes=(0, 1, 2), edges=frozenset({(0, 1), (0, 2), (1, 2)}))
    comps = strongly_connected_components(g)
    assert sorted(len(c) for c in comps) == [1, 1, 1]


def test_scc_matches_oracle_on_random_graphs():
    rng = random.Random(61)
    for _ in range(60):
        size = rng.randint(1, 12)
        nodes = tuple(range(size))
        possible = [(u, v) for u in nodes for v in nodes if u != v]
        edges = frozenset(rng.sample(possible, min(len(possible), rng.randint(0, 2 * size))))
        g = Digraph(nodes=nodes, edges=edges)
        ours = {frozenset(c) for c in strongly_connected_components(g)}
        assert ours == scc_oracle(g)


def test_scc_emission_is_reverse_topological():
    g = Digraph(nodes=(0, 1, 2, 3), edges=frozenset({(0, 1), (1, 2), (2, 1), (2, 3)}))
    comps = strongly_connected_components(g)
    position = {node: i for i, comp in enumerate(comps) for node in comp}
    for u, v in g.edges:
        if position[u] != position[v]:
            assert position[v] < position[u]


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
        sid = f3_space.id_of((negate(u), v))
        assert to_paper({sid})[0] in unsolved


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
    reached)."""
    merged = merge_active(hg, a)
    adjacency = merged.adjacency()
    escaped = tuple(sorted((u, v) for (u, v) in merged.edges if u in a and v not in a))
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
    conflicts = tuple(sorted({var_of(lit) for comp in scc_oracle(merged) for lit in comp
                              if negate(lit) in comp}))
    return not (escaped or reached or conflicts), escaped, conflicts, reached


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
    consistent, escaped, conflicts, reached = per_source_contradictions(hg, a)
    assert report.consistent == consistent
    assert report.escaped_implications == escaped
    assert report.scc_conflicts == conflicts
    assert {path[-1] for path in report.witness_paths} == reached


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(assignment_cases())
def test_witness_paths_follow_merged_edges(case):
    hg, a = case
    edges = merge_active(hg, a).edges
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
            merge_active(hg, a).edges


def test_expand_depth_zero(f3_space):
    tree = expand_literal(f3_space, parse_literal("x0"), 0)
    assert tree.root.truncated
    assert tree.root.subclauses == ()
    assert tree.truncated_leaves == 1


def test_expand_depth_zero_no_creations():
    f = formula(4, [clause("x0 x1 x2")])
    space = build_space(f)
    tree = expand_literal(space, parse_literal("x3"), 0)
    assert not tree.root.truncated
    assert tree.truncated_leaves == 0


def test_expand_f3_depth_one(f3_space, to_paper):
    tree = expand_literal(f3_space, parse_literal("x0"), 1)
    assert not tree.root.truncated
    sids = [sc.sid for sc in tree.root.subclauses]
    assert to_paper(sids) == [8, 9, 10, 11]
    for sc in tree.root.subclauses:
        for child in (sc.left, sc.right):
            assert child.truncated == bool(f3_space.subclauses_of(child.literal))
            assert child.subclauses == ()


def restrict(node, depth, level=0):
    if level >= depth or not node.subclauses:
        truncated = bool(node.subclauses) or node.truncated
        return (node.literal, truncated and level >= depth, ())
    return (node.literal, False,
            tuple((sc.sid, restrict(sc.left, depth, level + 1),
                   restrict(sc.right, depth, level + 1)) for sc in node.subclauses))


def test_expansion_prefix_property(f3_space):
    for lit_name in ("x0", "-x1", "x2"):
        lit = parse_literal(lit_name)
        for depth in range(3):
            shallow = expand_literal(f3_space, lit, depth)
            deep = expand_literal(f3_space, lit, depth + 1)
            assert restrict(deep.root, depth) == restrict(shallow.root, depth)


def count_truncated(node):
    if node.truncated:
        return 1
    return sum(count_truncated(child)
               for sc in node.subclauses for child in (sc.left, sc.right))


def test_expansion_truncation_accounting(f3_space):
    for depth in range(4):
        tree = expand_literal(f3_space, parse_literal("x0"), depth)
        assert tree.truncated_leaves == count_truncated(tree.root)


def test_expansion_json_schema(f3_space):
    tree = expand_literal(f3_space, parse_literal("x0"), 1)
    payload = expansion_to_json(tree)
    assert payload["depth"] == 1
    root = payload["root"]
    assert root["literal"] == "x0"
    assert len(root["subclauses"]) == 4
    left, right = root["subclauses"][0]
    assert left["truncated"] and right["truncated"]
    assert left["subclauses"] == []


def test_export_dot_hypernodal(f3_space):
    hg = build_hypernodal(f3_space)
    text = export_dot(hg)
    check_dot(text)
    assert text.count('subgraph "cluster_I_') == 6
    assert 'subgraph "cluster_true"' in text
    assert 'subgraph "cluster_false"' in text
    assert "style=dotted" in text    # cross-edges
    assert "style=dashed" in text    # containment


def test_export_dot_empty_family():
    hg = build_hypernodal(build_space(formula(0, [])))
    text = export_dot(hg)
    check_dot(text)


def test_export_dot_merged(f3_space):
    hg = build_hypernodal(f3_space)
    merged = merge_active(hg, lits("-x0", "-x1", "x2"))
    text = export_dot(merged)
    check_dot(text)
    assert "->" in text


def test_export_dot_expansion(f3_space):
    tree = expand_literal(f3_space, parse_literal("x0"), 2)
    text = export_dot(tree)
    check_dot(text)
    assert "(truncated)" in text


def test_export_dot_rejects_other_types():
    with pytest.raises(TypeError):
        export_dot(42)
