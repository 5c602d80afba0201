"""Per-literal implication graphs, the 2n-graph hypernodal family, merged
assignment graphs with contradiction detection, reachability/SCC utilities
and the recursive literal expansion.

Every sub-clause (l1 v l2) contributes the implications -l1 -> l2 and
-l2 -> l1 to its creator's graph. Node labels are literals, and each label's
own graph exists in the family: nodes are themselves graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .formula import (Assignment, GuardrailError, Literal, check_consistent,
                      literal_str, make_literal, negate)
from .subclauses import SubClauseSpace

TRANSITIVE_CLOSURE_MAX_NODES = 2000

Edge = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Directed graph over integer-labeled nodes (here: literal codes)."""

    nodes: tuple[int, ...]
    edges: frozenset[Edge]

    def adjacency(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {u: [] for u in self.nodes}
        for u, v in sorted(self.edges):
            adj[u].append(v)
        return adj


def implication_adjacency(n: int, pairs) -> list[list[Literal]]:
    """Successor lists of the implication graph over the 2n literal codes:
    each clause (l1 v l2) adds the edges -l1 -> l2 and -l2 -> l1, appended in
    the order the clauses are given."""
    adjacency: list[list[Literal]] = [[] for _ in range(2 * n)]
    for l1, l2 in pairs:
        adjacency[negate(l1)].append(l2)
        adjacency[negate(l2)].append(l1)
    return adjacency


def tarjan_scc(adjacency: list[list[int]]) -> list[tuple[int, ...]]:
    """Strongly connected components of the graph on nodes 0..len-1 whose
    successor lists are `adjacency`, via an explicit-stack Tarjan.

    Components are emitted in reverse topological order of the condensation.
    Roots are tried in node order and successors in list order, so the output
    is deterministic for a fixed adjacency.
    """
    size = len(adjacency)
    index = [-1] * size
    lowlink = [0] * size
    on_stack = [False] * size
    stack: list[int] = []
    components: list[tuple[int, ...]] = []
    counter = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(adjacency[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if index[succ] < 0:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack[succ] = True
                    work.append((succ, iter(adjacency[succ])))
                    break
                if on_stack[succ] and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    comp = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        comp.append(member)
                        if member == node:
                            break
                    components.append(tuple(comp))
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return components


def component_ids(adjacency: list[list[int]]) -> list[int]:
    """Component id per node, numbered in tarjan_scc's emission order
    (reverse topological)."""
    comp = [-1] * len(adjacency)
    for comp_id, members in enumerate(tarjan_scc(adjacency)):
        for node in members:
            comp[node] = comp_id
    return comp


@dataclass(frozen=True)
class LiteralGraph:
    """Implication graph of one literal's activated sub-clauses, plus the
    owner node itself. Cross-edges to equal-labeled nodes in other graphs
    are implied by the labels and materialized only on DOT export."""

    owner: Literal
    nodes: frozenset[Literal]
    edges: frozenset[Edge]


def build_literal_graph(space: SubClauseSpace, owner: Literal) -> LiteralGraph:
    nodes = {owner}
    edges = set()
    for sid in space.created_by.get(owner, ()):
        l1, l2 = space.pairs[sid]
        edges.add((negate(l1), l2))
        edges.add((negate(l2), l1))
        nodes.update((l1, negate(l1), l2, negate(l2)))
    return LiteralGraph(owner=owner, nodes=frozenset(nodes), edges=frozenset(edges))


@dataclass(frozen=True)
class HypernodalGraph:
    """One implication graph per literal: 2n graphs in all."""

    n: int
    graphs: dict[Literal, LiteralGraph] = field(default_factory=dict)

    def graph_of(self, lit: Literal) -> LiteralGraph:
        return self.graphs[lit]


def build_hypernodal(space: SubClauseSpace) -> HypernodalGraph:
    graphs = {}
    for v in range(space.n):
        for lit in (make_literal(v), make_literal(v, True)):
            graphs[lit] = build_literal_graph(space, lit)
    return HypernodalGraph(n=space.n, graphs=graphs)


def merge_active(hg: HypernodalGraph, a: Assignment) -> Digraph:
    """Union of the assigned literals' implication edges over the shared
    2n-literal node universe; equals the implication graph of the 2-SAT
    formula the assignment induces."""
    a = check_consistent(a)
    edges: set[Edge] = set()
    for lit in a:
        edges |= hg.graphs[lit].edges
    return Digraph(nodes=tuple(range(2 * hg.n)), edges=frozenset(edges))


def transitive_closure(g: Digraph) -> dict[int, frozenset[int]]:
    """Map node -> nodes reachable along a path of one or more edges."""
    if len(g.nodes) > TRANSITIVE_CLOSURE_MAX_NODES:
        raise GuardrailError(f"transitive closure limited to {TRANSITIVE_CLOSURE_MAX_NODES} nodes; "
                         f"use strongly_connected_components instead")
    adjacency = g.adjacency()
    closure: dict[int, frozenset[int]] = {}
    for start in g.nodes:
        seen: set[int] = set()
        frontier = list(adjacency.get(start, ()))
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency.get(node, ()))
        closure[start] = frozenset(seen)
    return closure


def strongly_connected_components(g: Digraph) -> list[tuple[int, ...]]:
    position = {node: i for i, node in enumerate(g.nodes)}
    adjacency = g.adjacency()
    components = tarjan_scc([[position[v] for v in adjacency[u]] for u in g.nodes])
    return [tuple(g.nodes[i] for i in comp) for comp in components]


@dataclass(frozen=True)
class ContradictionReport:
    """What find_contradictions found in an assignment's merged graph.

    Each field is bounded by the graph: at most one witness path per literal
    of the assignment, one conflict per variable, one entry per edge."""

    consistent: bool
    # one shortest path per negation of an assigned literal that the merged
    # graph reaches from the assignment: it starts at an assigned literal and
    # ends at the negation, sorted by that end literal
    witness_paths: tuple[tuple[Literal, ...], ...]
    scc_conflicts: tuple[int, ...]       # variables whose two literals share an SCC
    escaped_implications: tuple[Edge, ...]  # edges u -> v with u assigned, v not


def _witness_paths(adjacency: list[list[Literal]], a: Assignment) -> list[tuple[Literal, ...]]:
    """One breadth-first search from every assigned literal at once; each
    negation of an assigned literal it reaches is traced back along parent
    pointers to the nearest assigned literal."""
    parent = [-1] * len(adjacency)
    reached = [False] * len(adjacency)
    frontier = sorted(a)
    for lit in frontier:
        reached[lit] = True
    while frontier:
        next_frontier = []
        for node in frontier:
            for succ in adjacency[node]:
                if not reached[succ]:
                    reached[succ] = True
                    parent[succ] = node
                    next_frontier.append(succ)
        frontier = next_frontier
    paths = []
    for end in sorted(negate(lit) for lit in a):
        if reached[end]:
            path = [end]
            while parent[path[-1]] >= 0:
                path.append(parent[path[-1]])
            paths.append(tuple(reversed(path)))
    return paths


def find_contradictions(hg: HypernodalGraph, a: Assignment) -> ContradictionReport:
    """Merge the assignment's graphs and look for contradictions: an
    implication that leads out of the assignment, a path from the assignment
    to a negation of one of its literals, or a variable whose two literals
    are strongly connected.

    Runs in time linear in the merged graph, up to sorting its edges: one
    Tarjan pass for the conflicts and one multi-source breadth-first search
    for the witness paths. The last check is not implied by the others for
    partial assignments, where an unassigned variable can be in conflict
    without any edge leaving the assignment."""
    a = check_consistent(a)
    edges = merge_active(hg, a).edges
    escaped = tuple(sorted((u, v) for (u, v) in edges if u in a and v not in a))
    # Edge u -> v comes from the sub-clause (-u v v); keep each sub-clause once.
    pairs = sorted((negate(u), v) for (u, v) in edges if negate(u) < v)
    adjacency = implication_adjacency(hg.n, pairs)
    comp = component_ids(adjacency)
    conflicts = tuple(v for v in range(hg.n)
                      if comp[make_literal(v)] == comp[make_literal(v, True)])
    witnesses = _witness_paths(adjacency, a)
    return ContradictionReport(
        consistent=not (escaped or witnesses or conflicts),
        witness_paths=tuple(witnesses),
        scc_conflicts=conflicts,
        escaped_implications=escaped,
    )


@dataclass(frozen=True)
class LiteralNode:
    """One literal in the expansion: the literal conjoined with the expansion
    of each sub-clause it creates. Leaves cut off by the depth bound are
    marked truncated rather than dropped."""

    literal: Literal
    truncated: bool
    subclauses: tuple["SubClauseNode", ...]


@dataclass(frozen=True)
class SubClauseNode:
    sid: int
    left: LiteralNode
    right: LiteralNode


@dataclass(frozen=True)
class ExpansionTree:
    root: LiteralNode
    depth: int
    truncated_leaves: int


def expand_literal(space: SubClauseSpace, lit: Literal, depth: int) -> ExpansionTree:
    """Alternating literal/sub-clause expansion of a literal to a depth bound.

    A literal node at level d < depth expands into the sub-clauses it
    creates; each sub-clause is the disjunction of two literal nodes one
    level deeper. Expansions are recursive by nature (a literal can reach
    itself), so the bound is what terminates them.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    truncated_count = 0

    def build(node_lit: Literal, level: int) -> LiteralNode:
        nonlocal truncated_count
        created = sorted(space.created_by.get(node_lit, ()))
        if not created:
            return LiteralNode(literal=node_lit, truncated=False, subclauses=())
        if level >= depth:
            truncated_count += 1
            return LiteralNode(literal=node_lit, truncated=True, subclauses=())
        children = []
        for sid in created:
            left, right = space.pairs[sid]
            children.append(SubClauseNode(sid=sid,
                                          left=build(left, level + 1),
                                          right=build(right, level + 1)))
        return LiteralNode(literal=node_lit, truncated=False, subclauses=tuple(children))

    root = build(lit, 0)
    return ExpansionTree(root=root, depth=depth, truncated_leaves=truncated_count)


def expansion_to_json(tree: ExpansionTree) -> dict:
    def node_json(node: LiteralNode) -> dict:
        out: dict = {"literal": literal_str(node.literal)}
        if node.truncated:
            out["truncated"] = True
        out["subclauses"] = [[node_json(sc.left), node_json(sc.right)]
                             for sc in node.subclauses]
        return out

    return {"depth": tree.depth, "truncated_leaves": tree.truncated_leaves,
            "root": node_json(tree.root)}


def _quote(name: str) -> str:
    return '"' + name.replace('"', '\\"') + '"'


def _dot_hypernodal(hg: HypernodalGraph) -> str:
    lines = ["digraph hypernodal {", "  compound=true;"]
    stacks = (("cluster_true", "true literals", [make_literal(v) for v in range(hg.n)]),
              ("cluster_false", "false literals", [make_literal(v, True) for v in range(hg.n)]))
    node_name = lambda owner, lit: f"g{owner}_n{lit}"
    for cluster, label, owners in stacks:
        lines.append(f"  subgraph {_quote(cluster)} {{")
        lines.append(f"    label={_quote(label)};")
        for owner in owners:
            graph = hg.graphs[owner]
            lines.append(f"    subgraph {_quote('cluster_I_' + literal_str(owner))} {{")
            lines.append(f"      label={_quote('I(' + literal_str(owner) + ')')};")
            lines.append(f"      {_quote(node_name(owner, owner))} "
                         f"[label={_quote(literal_str(owner))}, style=filled, fillcolor=black, fontcolor=white];")
            for lit in sorted(graph.nodes - {owner}):
                lines.append(f"      {_quote(node_name(owner, lit))} [label={_quote(literal_str(lit))}];")
            for u, v in sorted(graph.edges):
                lines.append(f"      {_quote(node_name(owner, u))} -> {_quote(node_name(owner, v))};")
            lines.append("    }")
        lines.append("  }")
    # Containment (dashed): a leaf labeled l contains the graph I(l).
    for owner, graph in sorted(hg.graphs.items()):
        for lit in sorted(graph.nodes - {owner}):
            lines.append(f"  {_quote(node_name(owner, lit))} -> {_quote(node_name(lit, lit))} "
                         "[dir=none, style=dashed, constraint=false];")
    # Cross-edges (dotted): equal-labeled leaves of different graphs.
    owners = sorted(hg.graphs)
    for i, owner_a in enumerate(owners):
        for owner_b in owners[i + 1:]:
            shared = (hg.graphs[owner_a].nodes - {owner_a}) & (hg.graphs[owner_b].nodes - {owner_b})
            for lit in sorted(shared):
                lines.append(f"  {_quote(node_name(owner_a, lit))} -> {_quote(node_name(owner_b, lit))} "
                             "[dir=none, style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_digraph(g: Digraph) -> str:
    lines = ["digraph merged {"]
    used = {u for e in g.edges for u in e}
    for node in g.nodes:
        if node in used:
            lines.append(f"  {_quote('n' + str(node))} [label={_quote(literal_str(node))}];")
    for u, v in sorted(g.edges):
        lines.append(f"  {_quote('n' + str(u))} -> {_quote('n' + str(v))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_expansion(tree: ExpansionTree) -> str:
    lines = ["digraph expansion {"]
    counter = 0

    def emit(node: LiteralNode) -> str:
        nonlocal counter
        name = f"e{counter}"
        counter += 1
        label = literal_str(node.literal) + (" (truncated)" if node.truncated else "")
        lines.append(f"  {_quote(name)} [label={_quote(label)}];")
        for sc in node.subclauses:
            sc_name = f"e{counter}"
            counter += 1
            lines.append(f"  {_quote(sc_name)} [label={_quote('s' + str(sc.sid))}, shape=box];")
            lines.append(f"  {_quote(name)} -> {_quote(sc_name)};")
            for child in (sc.left, sc.right):
                lines.append(f"  {_quote(sc_name)} -> {_quote(emit(child))};")
        return name

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(obj) -> str:
    """Render a hypernodal family (two cluster stacks), a merged graph, or an
    expansion tree as DOT text."""
    if isinstance(obj, HypernodalGraph):
        return _dot_hypernodal(obj)
    if isinstance(obj, Digraph):
        return _dot_digraph(obj)
    if isinstance(obj, ExpansionTree):
        return _dot_expansion(obj)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")
