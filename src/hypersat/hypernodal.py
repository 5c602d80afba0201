"""The hypernodal family of implication graphs, merged assignment graphs with
contradiction detection, strongly connected components and the recursive
literal expansion.

Every sub-clause (l1 v l2) contributes the implications -l1 -> l2 and
-l2 -> l1 to its creator's graph. Node labels are literals, and each label's
own graph exists in the family: nodes are themselves graphs.

There is one graph representation, `ImplicationGraph`: 2n successor lists
indexed by literal code, built by `implication_adjacency` from a list of
sub-clauses. The family stores no graphs. `HypernodalGraph` is a view of the
sub-clause space it came from, and a literal's graph, merge_active(hg, {lit}),
like an assignment's merged graph, is built on request from the sub-clauses
it activates.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .formula import (Assignment, GuardrailError, Literal, check_consistent,
                      literal_str, make_literal, negate)
from .subclauses import SubClauseSpace

# Guardrails for expand_literal: literal and sub-clause nodes in the tree, and
# literal levels. Building, rendering and serializing the tree each recurse once
# per level, and the JSON encoder three times, so the depth cap keeps all of
# them inside Python's default recursion limit of 1000 frames.
EXPANSION_MAX_NODES = 10**6
EXPANSION_MAX_DEPTH = 200

Edge = tuple[int, int]


def implication_edges(pairs) -> Iterator[Edge]:
    """The implications of the clauses in the order given: each clause
    (l1 v l2) yields -l1 -> l2, then -l2 -> l1."""
    for l1, l2 in pairs:
        yield negate(l1), l2
        yield negate(l2), l1


def implication_adjacency(n: int, pairs) -> list[list[Literal]]:
    """Successor lists of the implication graph over the 2n literal codes,
    with each clause's edges appended in the order the clauses are given."""
    adjacency: list[list[Literal]] = [[] for _ in range(2 * n)]
    for u, v in implication_edges(pairs):
        adjacency[u].append(v)
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
class ImplicationGraph:
    """Implication graph over the 2n literal codes, as the successor lists
    implication_adjacency builds."""

    adjacency: list[list[Literal]]

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset((u, v) for u, successors in enumerate(self.adjacency)
                         for v in successors)


@dataclass(frozen=True)
class HypernodalGraph:
    """The 2n-graph family, as a view of its sub-clause space: the graph of
    literal l holds the implications of the sub-clauses l creates."""

    space: SubClauseSpace

    @property
    def n(self) -> int:
        return self.space.n


def build_hypernodal(space: SubClauseSpace) -> HypernodalGraph:
    return HypernodalGraph(space)


def merge_active(hg: HypernodalGraph, a: Assignment) -> ImplicationGraph:
    """Union of the assigned literals' graphs: the implication graph of the
    2-SAT formula the assignment induces.

    Sub-clauses are added in sorted order, so successor lists, and with them
    SCC numbering and witness paths, do not depend on set iteration order."""
    a = check_consistent(a)
    space = hg.space
    return ImplicationGraph(implication_adjacency(
        space.n, sorted(space.pairs[sid] for sid in space.activated(a))))


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

    Runs in time linear in the merged graph, up to sorting its sub-clauses:
    one Tarjan pass for the conflicts and one multi-source breadth-first search
    for the witness paths. The last check is not implied by the others for
    partial assignments, where an unassigned variable can be in conflict
    without any edge leaving the assignment."""
    a = check_consistent(a)
    adjacency = merge_active(hg, a).adjacency
    escaped = tuple(sorted((u, v) for u in a for v in adjacency[u] if v not in a))
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


def expansion_size(space: SubClauseSpace, lit: Literal, depth: int) -> int:
    """Literal and sub-clause nodes in expand_literal(space, lit, depth),
    counted without building the tree, or some number above
    EXPANSION_MAX_NODES once the count is known to exceed it.

    size[l] is the size of l's tree with k levels left to expand, computed for
    every literal from k = 0 up: a literal that creates nothing, or has no
    level left, is one node; otherwise one node plus, per created sub-clause,
    one node and both literals' trees with k - 1 levels. Each level costs
    O(n + m). The root's size grows with k until its tree is whole, so the
    count stops early once it stops growing or passes the cap.
    """
    pairs = space.pairs
    size = [1] * (2 * space.n)
    for _ in range(depth):
        previous = size[lit]
        size = [1 + sum(1 + size[pairs[sid][0]] + size[pairs[sid][1]] for sid in created)
                for created in space.created_by]
        if size[lit] == previous or size[lit] > EXPANSION_MAX_NODES:
            break
    return size[lit]


def expand_literal(space: SubClauseSpace, lit: Literal, depth: int) -> ExpansionTree:
    """Alternating literal/sub-clause expansion of a literal to a depth bound.

    A literal node at level d < depth expands into the sub-clauses it
    creates; each sub-clause is the disjunction of two literal nodes one
    level deeper. Expansions are recursive by nature (a literal can reach
    itself), so the bound is what terminates them. Refuses trees of more
    than EXPANSION_MAX_NODES nodes, and trees that still grow past
    EXPANSION_MAX_DEPTH levels; a larger depth bound is accepted when the
    tree is whole above it.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    nodes = expansion_size(space, lit, depth)
    if nodes > EXPANSION_MAX_NODES:
        raise GuardrailError(f"expansion limited to {EXPANSION_MAX_NODES} nodes; "
                             f"{literal_str(lit)} to depth {depth} has more")
    if depth > EXPANSION_MAX_DEPTH and nodes > expansion_size(space, lit, EXPANSION_MAX_DEPTH):
        raise GuardrailError(f"expansion limited to depth {EXPANSION_MAX_DEPTH}; "
                             f"{literal_str(lit)} to depth {depth} goes deeper")
    truncated_count = 0

    def build(node_lit: Literal, level: int) -> LiteralNode:
        nonlocal truncated_count
        created = sorted(space.created_by[node_lit])
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


def _endpoints(edges) -> set[Literal]:
    return {lit for edge in edges for lit in edge}


def _dot_hypernodal(hg: HypernodalGraph) -> str:
    lines = ["digraph hypernodal {", "  compound=true;"]
    stacks = (("cluster_true", "true literals", [make_literal(v) for v in range(hg.n)]),
              ("cluster_false", "false literals", [make_literal(v, True) for v in range(hg.n)]))
    node_name = lambda owner, lit: f"g{owner}_n{lit}"
    space = hg.space
    leaves: dict[Literal, set[Literal]] = {}   # owner -> labels of its other nodes
    for cluster, label, owners in stacks:
        lines.append(f"  subgraph {_quote(cluster)} {{")
        lines.append(f"    label={_quote(label)};")
        for owner in owners:
            # The edges of merge_active(hg, {owner}), without its 2n successor lists.
            edges = sorted(set(implication_edges(space.pairs[sid]
                                                 for sid in space.created_by[owner])))
            leaves[owner] = _endpoints(edges) - {owner}
            lines.append(f"    subgraph {_quote('cluster_I_' + literal_str(owner))} {{")
            lines.append(f"      label={_quote('I(' + literal_str(owner) + ')')};")
            lines.append(f"      {_quote(node_name(owner, owner))} "
                         f"[label={_quote(literal_str(owner))}, style=filled, fillcolor=black, fontcolor=white];")
            for lit in sorted(leaves[owner]):
                lines.append(f"      {_quote(node_name(owner, lit))} [label={_quote(literal_str(lit))}];")
            for u, v in edges:
                lines.append(f"      {_quote(node_name(owner, u))} -> {_quote(node_name(owner, v))};")
            lines.append("    }")
        lines.append("  }")
    owners = sorted(leaves)
    # Containment (dashed): a leaf labeled l contains the graph I(l).
    for owner in owners:
        for lit in sorted(leaves[owner]):
            lines.append(f"  {_quote(node_name(owner, lit))} -> {_quote(node_name(lit, lit))} "
                         "[dir=none, style=dashed, constraint=false];")
    # Cross-edges (dotted): equal-labeled leaves of different graphs, found
    # through the owners holding each label and emitted by (owner_a, owner_b, lit).
    holders: dict[Literal, list[Literal]] = {}
    for owner in owners:
        for lit in leaves[owner]:
            holders.setdefault(lit, []).append(owner)
    cross = sorted((owner_a, owner_b, lit) for lit, held in holders.items()
                   for i, owner_a in enumerate(held) for owner_b in held[i + 1:])
    for owner_a, owner_b, lit in cross:
        lines.append(f"  {_quote(node_name(owner_a, lit))} -> {_quote(node_name(owner_b, lit))} "
                     "[dir=none, style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_merged(g: ImplicationGraph) -> str:
    lines = ["digraph merged {"]
    edges = sorted(g.edges)
    for node in sorted(_endpoints(edges)):
        lines.append(f"  {_quote('n' + str(node))} [label={_quote(literal_str(node))}];")
    for u, v in edges:
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
    if isinstance(obj, ImplicationGraph):
        return _dot_merged(obj)
    if isinstance(obj, ExpansionTree):
        return _dot_expansion(obj)
    raise TypeError(f"cannot export {type(obj).__name__} as DOT")
