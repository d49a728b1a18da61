"""Power graphs and normal-subgroup-based power graphs, built by two independent routes."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .groups import FiniteGroup, euler_phi
from .subgroups import QuotientGroup, SubgroupSet


class SimpleGraph:
    """Undirected loop-free graph with stable labels; adjacency as per-vertex bitset rows."""

    __slots__ = ("vertex_count", "vertex_labels", "rows")

    def __init__(self, vertex_labels, edges):
        labels = tuple(str(s) for s in vertex_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("vertex labels must be pairwise distinct")
        n = len(labels)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self.vertex_count = n
        self.vertex_labels = labels
        self.rows = tuple(rows)

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(self.degree(u) for u in range(self.vertex_count)) // 2

    def neighbors(self, u: int):
        row = self.rows[u]
        while row:
            low = row & -row
            yield low.bit_length() - 1
            row ^= low

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, in ascending lexicographic order."""
        out = []
        for u in range(self.vertex_count):
            row = self.rows[u] >> (u + 1)
            v = u + 1
            while row:
                if row & 1:
                    out.append((u, v))
                row >>= 1
                v += 1
        return out

    def complement(self) -> "SimpleGraph":
        n = self.vertex_count
        full = (1 << n) - 1
        g = SimpleGraph.__new__(SimpleGraph)
        g.vertex_count = n
        g.vertex_labels = self.vertex_labels
        g.rows = tuple((full ^ self.rows[u]) & ~(1 << u) for u in range(n))
        return g

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SimpleGraph)
            and self.vertex_labels == other.vertex_labels
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.vertex_labels, self.rows))

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.vertex_count}, m={self.edge_count})"


@dataclass(frozen=True)
class NSBPowerGraph:
    """A normal-subgroup-based power graph plus its group-side bookkeeping."""

    graph: SimpleGraph
    vertex_element: tuple[int, ...]
    coset_of: tuple[int, ...]


def power_graph(G: FiniteGroup) -> SimpleGraph:
    """Undirected power graph of G: distinct u, v adjacent iff one is a power of the other."""
    n = G.order
    powers = [G.cyclic_subgroup(a) for a in G.elements()]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u in powers[v] or v in powers[u]
    ]
    return SimpleGraph(G.labels, edges)


def power_graph_edge_count_formula(G: FiniteGroup) -> int:
    """Edge count of the power graph via (1/2) * sum over a of (2*o(a) - phi(o(a)) - 1)."""
    total = sum(2 * G.element_order(a) - euler_phi(G.element_order(a)) - 1 for a in G.elements())
    if total % 2 != 0:
        raise AssertionError("edge-count sum formula produced an odd total")
    return total // 2


def _coset_partition(G: FiniteGroup, H: SubgroupSet) -> tuple[int, ...]:
    """Coset index per element of G; cosets ordered by smallest member, H first."""
    keys: dict[frozenset[int], int] = {}
    per_element: list[frozenset[int]] = []
    for a in G.elements():
        key = frozenset(G.table[a][h] for h in H.elements)
        per_element.append(key)
        keys.setdefault(key, 0)
    ordered = sorted(keys, key=min)
    index = {key: i for i, key in enumerate(ordered)}
    return tuple(index[key] for key in per_element)


def _check_nsb_inputs(G: FiniteGroup, H: SubgroupSet) -> None:
    if H.parent.table != G.table:
        raise ValueError("H is not a subgroup of this group")
    if not H.is_normal:
        raise ValueError("H must be normal in G")
    if H.order == G.order:
        raise ValueError("H = G is rejected: the graph would degenerate to a single vertex")


def nsb_power_graph(G: FiniteGroup, H: SubgroupSet) -> NSBPowerGraph:
    """Direct construction from the definition: adjacency by scanning exponent cosets.

    Vertices are e followed by G \\ H in ascending element order; distinct x, y
    are joined iff xH = y^m H or yH = x^n H for some positive exponent, decided
    by scanning m = 1..order(y) (coset powers repeat with period dividing it).
    """
    _check_nsb_inputs(G, H)
    coset = _coset_partition(G, H)
    members = set(H.elements)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    power_cosets: dict[int, set[int]] = {}
    for a in vertex_element:
        seen = set()
        x = a
        for _ in range(G.element_order(a)):
            seen.add(coset[x])
            x = G.table[x][a]
        power_cosets[a] = seen
    n = len(vertex_element)
    edges = []
    for i in range(n):
        x = vertex_element[i]
        for j in range(i + 1, n):
            y = vertex_element[j]
            if coset[x] in power_cosets[y] or coset[y] in power_cosets[x]:
                edges.append((i, j))
    labels = tuple(G.labels[a] for a in vertex_element)
    graph = SimpleGraph(labels, edges)
    return NSBPowerGraph(
        graph=graph,
        vertex_element=vertex_element,
        coset_of=tuple(coset[a] for a in vertex_element),
    )


def expand_quotient_graph(Q: QuotientGroup, H: SubgroupSet) -> NSBPowerGraph:
    """Independent construction: build the quotient's power graph, then blow up cosets.

    Every non-identity coset becomes a clique of |H| vertices, vertices in
    distinct non-identity cosets are joined iff their cosets are adjacent in
    the quotient's power graph, and the identity vertex is joined to all.
    """
    if Q.subgroup.elements != H.elements or Q.parent.table != H.parent.table:
        raise ValueError("quotient was not built from this subgroup")
    G = Q.parent
    _check_nsb_inputs(G, H)
    qpg = power_graph(Q.group)
    members = set(H.elements)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    coset_of = tuple(Q.projection[a] for a in vertex_element)
    n = len(vertex_element)
    edges = []
    for j in range(1, n):
        edges.append((0, j))  # identity dominates
    for i in range(1, n):
        for j in range(i + 1, n):
            ci, cj = coset_of[i], coset_of[j]
            if ci == cj:
                edges.append((i, j))  # coset clique
            elif qpg.has_edge(ci, cj):
                edges.append((i, j))  # lifted quotient adjacency
    labels = tuple(G.labels[a] for a in vertex_element)
    graph = SimpleGraph(labels, edges)
    return NSBPowerGraph(
        graph=graph,
        vertex_element=vertex_element,
        coset_of=coset_of,
    )


def graph_to_json_obj(graph: SimpleGraph) -> dict:
    """The stable wire format: {"vertices": [labels], "edges": [[i, j], ...]} with i < j."""
    return {
        "vertices": list(graph.vertex_labels),
        "edges": [[u, v] for u, v in graph.edges()],
    }


def graph_to_json(graph: SimpleGraph) -> str:
    return json.dumps(graph_to_json_obj(graph), indent=2) + "\n"


def graph_to_dot(graph: SimpleGraph, name: str = "G") -> str:
    """DOT rendering with vertex labels and nothing else; byte-deterministic."""
    safe = name.replace('"', "'")
    lines = [f'graph "{safe}" {{']
    for v in range(graph.vertex_count):
        label = graph.vertex_labels[v].replace('"', "'")
        lines.append(f'  {v} [label="{label}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
