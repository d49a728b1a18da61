"""Power graphs and normal-subgroup-based power graphs, built by two independent routes."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import or_

from .groups import FiniteGroup, euler_phi
from .subgroups import QuotientGroup, SubgroupSet, _bits, _coset_partition


class SimpleGraph:
    """Undirected loop-free graph with stable labels; adjacency as per-vertex bitset rows."""

    __slots__ = ("vertex_count", "vertex_labels", "rows")

    def __init__(self, vertex_labels, edges):
        labels = tuple(str(s) for s in vertex_labels)
        n = len(labels)
        rows = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        self._set_rows(labels, rows)

    @classmethod
    def _from_rows(cls, vertex_labels, rows) -> "SimpleGraph":
        """A graph from adjacency rows the caller built symmetric."""
        g = cls.__new__(cls)
        g._set_rows(tuple(str(s) for s in vertex_labels), rows)
        return g

    def _set_rows(self, labels: tuple[str, ...], rows) -> None:
        """Both constructors end here: at least one vertex, distinct labels, one row
        per vertex, no loops and no neighbour out of range."""
        n = len(labels)
        if n == 0:
            raise ValueError("a graph needs at least one vertex")
        if len(set(labels)) != n:
            raise ValueError("vertex labels must be pairwise distinct")
        rows = tuple(rows)
        if len(rows) != n:
            raise ValueError(f"{len(rows)} rows for {n} vertices")
        for u, row in enumerate(rows):
            if (row >> u) & 1:
                raise ValueError(f"loop at vertex {u} is not allowed")
            if row < 0 or row >> n:
                raise ValueError(f"row {u} has a neighbour out of range")
        self.vertex_count = n
        self.vertex_labels = labels
        self.rows = rows

    def has_edge(self, u: int, v: int) -> bool:
        return (self.rows[u] >> v) & 1 == 1

    def degree(self, u: int) -> int:
        return self.rows[u].bit_count()

    @property
    def edge_count(self) -> int:
        return sum(self.degree(u) for u in range(self.vertex_count)) // 2

    def neighbors(self, u: int):
        return _bits(self.rows[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, in ascending lexicographic order."""
        return [(u, v) for u in range(self.vertex_count) for v in _bits(self.rows[u]) if v > u]

    def complement(self) -> "SimpleGraph":
        full = (1 << self.vertex_count) - 1
        return SimpleGraph._from_rows(
            self.vertex_labels, ((full ^ row) & ~(1 << u) for u, row in enumerate(self.rows))
        )

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
    powers = [G.powers(a) for a in G.elements()]
    return SimpleGraph._from_rows(G.labels, _power_rows(range(G.order), powers, G.order))


def _power_rows(class_of, powers, classes: int) -> list[int]:
    """Rows joining i != j iff class_of[i] is in powers[j] or class_of[j] in powers[i].

    in_class[c] holds the vertices of class c and into[c] those with a power in
    c; row i is into[class_of[i]] or'd with in_class[c] for c in powers[i].
    """
    in_class = [0] * classes
    into = [0] * classes
    for i, (c, reach) in enumerate(zip(class_of, powers)):
        bit = 1 << i
        in_class[c] |= bit
        for d in reach:
            into[d] |= bit
    rows = []
    for i, (c, reach) in enumerate(zip(class_of, powers)):
        row = into[c]
        for d in reach:
            row |= in_class[d]
        rows.append(row & ~(1 << i))
    return rows


def power_graph_edge_count_formula(G: FiniteGroup) -> int:
    """Edge count of the power graph via (1/2) * sum over a of (2*o(a) - phi(o(a)) - 1)."""
    total = sum(2 * G.element_order(a) - euler_phi(G.element_order(a)) - 1 for a in G.elements())
    if total % 2 != 0:
        raise AssertionError("edge-count sum formula produced an odd total")
    return total // 2


def _check_nsb_inputs(G: FiniteGroup, H: SubgroupSet) -> None:
    if H.parent.table != G.table:
        raise ValueError("H is not a subgroup of this group")
    if not H.is_normal:
        raise ValueError("H must be normal in G")
    if H.order == G.order:
        raise ValueError("H = G is rejected: the graph would degenerate to a single vertex")


def nsb_power_graph(G: FiniteGroup, H: SubgroupSet) -> NSBPowerGraph:
    """Direct construction from the definition: rows are unions of coset masks.

    Vertices are e followed by G \\ H in ascending element order; distinct x, y
    are joined iff xH = y^m H or yH = x^n H for some positive exponent. So row x
    is every vertex in one of xH, x^2 H, ... (walked up to e) together with
    every vertex that has a power in xH.
    """
    _check_nsb_inputs(G, H)
    coset = _coset_partition(G.table, H.elements)
    members = set(H.elements)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    powers = [{coset[x] for x in G.powers(a)} for a in vertex_element]
    coset_of = tuple(coset[a] for a in vertex_element)
    labels = tuple(G.labels[a] for a in vertex_element)
    rows = _power_rows(coset_of, powers, G.order // H.order)
    return NSBPowerGraph(SimpleGraph._from_rows(labels, rows), vertex_element, coset_of)


def expand_quotient_graph(Q: QuotientGroup, H: SubgroupSet) -> NSBPowerGraph:
    """Independent construction: build the quotient's power graph, then blow up cosets.

    blocks[c] holds the vertices in coset c and lifted[c] ORs the blocks of c
    and of its neighbours in the quotient's power graph, so every non-identity
    coset becomes a clique of |H| vertices joined to the cosets the quotient
    joins it to. Coset 0's block is the identity vertex alone, and the
    quotient's identity is joined to every coset, so that vertex is joined to all.
    """
    if Q.subgroup.elements != H.elements or Q.parent.table != H.parent.table:
        raise ValueError("quotient was not built from this subgroup")
    G = Q.parent
    _check_nsb_inputs(G, H)
    qrows = power_graph(Q.group).rows
    members = set(H.elements)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    coset_of = tuple(Q.projection[a] for a in vertex_element)
    blocks = [0] * len(qrows)
    for i, c in enumerate(coset_of):
        blocks[c] |= 1 << i
    lifted = [reduce(or_, (blocks[d] for d in _bits(row | 1 << c))) for c, row in enumerate(qrows)]
    rows = [lifted[c] & ~(1 << i) for i, c in enumerate(coset_of)]
    labels = tuple(G.labels[a] for a in vertex_element)
    return NSBPowerGraph(SimpleGraph._from_rows(labels, rows), vertex_element, coset_of)


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
