"""The hypernodal family of implication graphs, merged assignment graphs with
contradiction detection, strongly connected components and the expansion
graph of a literal.

Every sub-clause (l1 v l2) contributes the implications -l1 -> l2 and
-l2 -> l1 to its creator's graph. Node labels are literals, and each label's
own graph exists in the family: nodes are themselves graphs.

An implication graph is 2n successor lists indexed by literal code, as
`implication_adjacency` builds them from a list of sub-clauses. The family
stores no graphs. `HypernodalGraph` is a view of the sub-clause space it came
from, and a literal's graph, merge_active(hg, {lit}), like an assignment's
merged graph, is built on request from the sub-clauses it activates.

A literal's expansion is the literal/sub-clause graph it reaches. A node
contained in a graph that it contains is a cycle there, not an endless
descent, so the graph has at most 2n literals and |S| sub-clauses; one
breadth-first search records each once, with the first level it is reached
at, in time linear in n + |S| at any depth bound.

Three renderers write DOT text: `export_dot` a merged graph, `family_to_dot`
the family and `expansion_to_dot` an expansion graph. Every name they quote is
built from integers and fixed words (n<code>, g<owner>_n<lit>, cluster_I_<lit>,
I(<lit>), l<code>, s<sid>, a literal's name, the stack labels), so none holds
'"' and they write the quotes inline.
"""

from __future__ import annotations

from itertools import chain
from operator import lt
from types import SimpleNamespace
from typing import NamedTuple

from .formula import (Assignment, Literal, check_consistent, literal_str, make_literal,
                      negate)
from .subclauses import Pair, SubClauseSpace

Edge = tuple[int, int]


def implication_adjacency(n: int, pairs) -> list[list[Literal]]:
    """Successor lists of the implication graph over the 2n literal codes,
    with each clause's edges appended in the order the clauses are given."""
    adjacency: list[list[Literal]] = [[] for _ in range(2 * n)]
    for l1, l2 in pairs:   # -l1 -> l2, then -l2 -> l1
        adjacency[l1 ^ 1].append(l2)
        adjacency[l2 ^ 1].append(l1)
    return adjacency


def component_ids(adjacency: list[list[int]]) -> list[int]:
    """Strongly connected component id per node of the graph on nodes
    0..len-1 whose successor lists are `adjacency`, via an explicit-stack
    Tarjan (1972).

    Each node gets its component's id when the component completes, so ids
    run in reverse topological order of the condensation: an edge between
    two components leads to the smaller id. A visited node without an id is
    still on Tarjan's stack. Roots are tried in node order and successors in
    list order, so the ids are deterministic for a fixed adjacency.
    """
    size = len(adjacency)
    index = [-1] * size
    lowlink = [0] * size
    comp = [-1] * size
    stack: list[int] = []
    counter = comp_id = 0
    for root in range(size):
        if index[root] >= 0:
            continue
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(adjacency[root]))]
        while work:
            node, successors = work[-1]
            for succ in successors:
                if index[succ] < 0:
                    index[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    work.append((succ, iter(adjacency[succ])))
                    break
                if comp[succ] < 0 and index[succ] < lowlink[node]:
                    lowlink[node] = index[succ]
            else:
                work.pop()
                if lowlink[node] == index[node]:
                    while True:
                        member = stack.pop()
                        comp[member] = comp_id
                        if member == node:
                            break
                    comp_id += 1
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
    return comp


def conflicting_variables(comp: list[int]) -> tuple[int, ...]:
    """The variables, ascending, whose two literals share a component of
    component_ids(...) over the 2n literal codes: the conflicts that make a
    2-SAT formula unsatisfiable (Aspvall, Plass and Tarjan 1979)."""
    return tuple(v for v, (pos, neg) in enumerate(zip(comp[0::2], comp[1::2])) if pos == neg)


class HypernodalGraph(NamedTuple):
    """The 2n-graph family, as a view of its sub-clause space: the graph of
    literal l holds the implications of the sub-clauses l creates."""

    space: SubClauseSpace


def build_hypernodal(space: SubClauseSpace) -> HypernodalGraph:
    return HypernodalGraph(space)


def merge_active(hg: HypernodalGraph, a: Assignment) -> list[list[Literal]]:
    """Union of the assigned literals' graphs: the successor lists of the
    implication graph of the 2-SAT formula the assignment induces.

    Each successor list is ascending, so SCC numbering and witness paths do
    not depend on set iteration order. Where the pairs are variable-ordered,
    as build_space makes them from variable-ordered clauses, these are the
    lists of the sorted sub-clauses."""
    a = check_consistent(a)
    space = hg.space
    adjacency = implication_adjacency(space.n,
                                      map(space.pairs.__getitem__, space.activated(a)))
    for out in adjacency:
        out.sort()
    return adjacency


class ContradictionReport(SimpleNamespace):
    """What find_contradictions found in an assignment's merged graph, as
    three tuples, which vars() returns:

    - witness_paths: one shortest path per negation of an assigned literal
      that the merged graph reaches from the assignment; it starts at an
      assigned literal and ends at the negation, sorted by that end literal;
    - scc_conflicts: the variables whose two literals share an SCC;
    - escaped_implications: the forced implications, the edges u -> v with u
      assigned and v not. Each says that v is forced; it is no contradiction.

    `consistent` says that there is no witness path and no SCC conflict:
    exactly when the assignment, complete or partial, extends to a solution
    of the 2-SAT formula it induces (Aspvall, Plass and Tarjan 1979). The
    graph is skew-symmetric, so if the literals reached from the assignment
    held both z and -z, an assigned literal would reach the negation of an
    assigned literal: a witness path. Otherwise setting every reached
    literal true satisfies every clause with a variable it sets, and with no
    SCC conflict the other clauses take any 2-SAT solution. For a complete
    assignment an escaped edge u -> v has -v assigned, so it is a one-edge
    witness path.

    Each field is bounded by the graph: at most one witness path per literal
    of the assignment, one conflict per variable, one entry per edge."""

    def __init__(self, witness_paths: tuple[tuple[Literal, ...], ...],
                 scc_conflicts: tuple[int, ...], escaped_implications: tuple[Edge, ...]):
        super().__init__(witness_paths=witness_paths, scc_conflicts=scc_conflicts,
                         escaped_implications=escaped_implications)

    @property
    def consistent(self) -> bool:
        return not (self.witness_paths or self.scc_conflicts)

    def __repr__(self) -> str:
        fields = {"consistent": self.consistent, **vars(self)}
        return f"ContradictionReport({', '.join(f'{k}={v!r}' for k, v in fields.items())})"


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
    """Merge the assignment's graphs and report the contradictions of the
    merged graph, its witness paths and SCC conflicts, with its forced
    implications (merged_contradictions), in time linear in it up to sorting
    its successor lists."""
    a = check_consistent(a)
    return merged_contradictions(merge_active(hg, a), a)


def merged_contradictions(adjacency: list[list[Literal]], a: Assignment) -> ContradictionReport:
    """Look for contradictions in the graph merge_active(hg, a) returned for
    the consistent assignment `a`: a path from the assignment to a negation
    of one of its literals, or a variable whose two literals are strongly
    connected. It also lists the implications that lead out of the
    assignment, which only force their heads (ContradictionReport).

    Runs in time linear in the graph, up to sorting what it reports: one
    Tarjan pass for the conflicts and one multi-source breadth-first search
    for the witness paths. The conflicts are not implied by the paths for
    partial assignments, where an unassigned variable can be in conflict
    with no witness path at all."""
    escaped = tuple(sorted((u, v) for u in a for v in adjacency[u] if v not in a))
    witnesses = _witness_paths(adjacency, a)
    return ContradictionReport(witness_paths=tuple(witnesses),
                               scc_conflicts=conflicting_variables(component_ids(adjacency)),
                               escaped_implications=escaped)


class ExpandedSubClause(NamedTuple):
    sid: int
    literals: Pair
    creators: tuple[Literal, ...]   # the expanded literals that create it, in the order reached


class Expansion(NamedTuple):
    """The literal/sub-clause graph a literal reaches within a depth bound,
    each node recorded once. A sub-clause's level is that of creators[0].
    Unfolding the graph from `root` to `depth` gives the expansion tree: a
    literal at level d < depth conjoins the sub-clauses it creates, ascending
    by id, and each of those is the disjunction of its literals at d + 1."""

    root: Literal
    depth: int
    levels: dict[Literal, int]      # first level of each literal, in the order reached
    subclauses: tuple[ExpandedSubClause, ...]   # in the order reached
    truncated: frozenset[Literal]   # first reached at `depth`, creating something


def expand_literal(space: SubClauseSpace, lit: Literal, depth: int) -> Expansion:
    """One breadth-first search from `lit` (level 0): a literal first reached
    at level d < depth is expanded into the sub-clauses it creates, in
    ascending id order, and each sub-clause reaches its two literals at level
    d + 1. Each literal and sub-clause is visited once, at any depth."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    levels = {lit: 0}
    creators: dict[int, list[Literal]] = {}
    queue = [lit]
    for node in queue:   # the queue grows as literals are reached
        if levels[node] == depth:
            continue
        for sid in sorted(space.created_by[node]):
            if sid not in creators:
                creators[sid] = []
                for child in space.pairs[sid]:
                    if child not in levels:
                        levels[child] = levels[node] + 1
                        queue.append(child)
            creators[sid].append(node)
    return Expansion(
        root=lit, depth=depth, levels=levels,
        subclauses=tuple(ExpandedSubClause(sid, space.pairs[sid], tuple(by))
                         for sid, by in creators.items()),
        truncated=frozenset(node for node, level in levels.items()
                            if level == depth and space.created_by[node]))


def expansion_to_json(expansion: Expansion) -> dict:
    return {"root": literal_str(expansion.root), "depth": expansion.depth,
            "levels": {literal_str(lit): level for lit, level in expansion.levels.items()},
            "truncated": sorted(literal_str(lit) for lit in expansion.truncated),
            "subclauses": [{"id": sc.sid, "level": expansion.levels[sc.creators[0]],
                            "literals": [literal_str(x) for x in sc.literals],
                            "creators": [literal_str(x) for x in sc.creators]}
                           for sc in expansion.subclauses]}


def family_to_dot(hg: HypernodalGraph) -> str:
    """The family as DOT: one cluster per literal's graph, in a true and a
    false stack, with dashed containment and dotted cross-edges. A dotted edge
    says that two leaves with the same label are one literal. The leaves
    labeled l are chained in owner order, h - 1 edges for h holders of l, not
    one per pair: with the dashed edges to I(l) that keeps them connected, and
    there are fewer dotted edges than leaves."""
    lines = ["digraph hypernodal {", "  compound=true;"]
    space = hg.space
    stacks = (("cluster_true", "true literals", [make_literal(v) for v in range(space.n)]),
              ("cluster_false", "false literals", [make_literal(v, True) for v in range(space.n)]))
    leaves: dict[Literal, set[Literal]] = {}   # owner -> labels of its other nodes
    for cluster, label, owners in stacks:
        lines.append(f'  subgraph "{cluster}" {{')
        lines.append(f'    label="{label}";')
        for owner in owners:
            # The edges of merge_active(hg, {owner}); a pair (l, l) gives one twice.
            edges = sorted({edge for l1, l2 in map(space.pairs.__getitem__, space.created_by[owner])
                            for edge in ((negate(l1), l2), (negate(l2), l1))})
            leaves[owner] = {lit for edge in edges for lit in edge} - {owner}
            name = literal_str(owner)
            lines.append(f'    subgraph "cluster_I_{name}" {{')
            lines.append(f'      label="I({name})";')
            lines.append(f'      "g{owner}_n{owner}" '
                         f'[label="{name}", style=filled, fillcolor=black, fontcolor=white];')
            for lit in sorted(leaves[owner]):
                lines.append(f'      "g{owner}_n{lit}" [label="{literal_str(lit)}"];')
            for u, v in edges:
                lines.append(f'      "g{owner}_n{u}" -> "g{owner}_n{v}";')
            lines.append("    }")
        lines.append("  }")
    owners = sorted(leaves)
    # Containment (dashed): a leaf labeled l contains the graph I(l).
    for owner in owners:
        for lit in sorted(leaves[owner]):
            lines.append(f'  "g{owner}_n{lit}" -> "g{lit}_n{lit}" '
                         "[dir=none, style=dashed, constraint=false];")
    # Cross-edges (dotted): equal-labeled leaves of different graphs, chained
    # through each label's holders in owner order, by (owner_a, owner_b, lit).
    holders: dict[Literal, list[Literal]] = {}
    for owner in owners:
        for lit in leaves[owner]:
            holders.setdefault(lit, []).append(owner)
    cross = sorted((owner_a, owner_b, lit) for lit, held in holders.items()
                   for owner_a, owner_b in zip(held, held[1:]))
    for owner_a, owner_b, lit in cross:
        lines.append(f'  "g{owner_a}_n{lit}" -> "g{owner_b}_n{lit}" '
                     "[dir=none, style=dotted, constraint=false];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_dot(adjacency: list[list[Literal]]) -> str:
    """A merged graph, given as successor lists, as DOT. Nodes are the edges'
    endpoints, ascending, and edges are sorted by (u, v) with repeats
    dropped: each node's successors, if not strictly ascending already, are
    deduplicated and sorted in node order, so the cost is at most
    O(V + E + sum of d log d) over the out-degrees d, with no global sort of
    the edges. Besides the output it holds two texts per node, its label line
    and its edges rendered as one chunk, not one string per edge."""
    endpoint = [bool(out) for out in adjacency]
    for v in chain.from_iterable(adjacency):
        endpoint[v] = True
    # Neither 'n<code>' nor a literal's name contains '"', so quoting either
    # only adds the quotes; each node's name is built once.
    names = [f'"n{node}"' if marked else "" for node, marked in enumerate(endpoint)]
    chunks = ["digraph merged {\n"]
    chunks.extend(f'  {names[node]} [label="{literal_str(node)}"];\n'
                  for node, marked in enumerate(endpoint) if marked)
    for u, out in enumerate(adjacency):
        if out:
            head = f"  {names[u]} -> "
            # merge_active's lists are ascending already; others are sorted here.
            ascending = out if all(map(lt, out, out[1:])) else sorted(set(out))
            chunks.append(head + f";\n{head}".join(map(names.__getitem__, ascending)) + ";\n")
    chunks.append("}\n")
    return "".join(chunks)


def expansion_to_dot(expansion: Expansion) -> str:
    """An expansion graph as DOT: creators -> boxed sub-clause -> its literals."""
    lines = ["digraph expansion {"]
    for lit in expansion.levels:
        label = literal_str(lit) + (" (truncated)" if lit in expansion.truncated else "")
        lines.append(f'  "l{lit}" [label="{label}"];')
    for sc in expansion.subclauses:
        name = f'"s{sc.sid}"'
        lines.append(f"  {name} [label={name}, shape=box];")
        for creator in sc.creators:
            lines.append(f'  "l{creator}" -> {name};')
        for lit in sc.literals:
            lines.append(f'  {name} -> "l{lit}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
