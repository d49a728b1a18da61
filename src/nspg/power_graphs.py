"""Power graphs and normal-subgroup-based power graphs, built by two independent routes."""

from __future__ import annotations

import json
from typing import NamedTuple

from .groups import FiniteGroup, shown
from .subgroups import QuotientGroup, SubgroupSet, _bits, _check_normal_subgroup, _coset_partition


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
        return sum(map(int.bit_count, self.rows)) // 2

    def neighbors(self, u: int):
        return _bits(self.rows[u])

    def edges(self) -> list[tuple[int, int]]:
        """All edges as (i, j) pairs with i < j, in ascending lexicographic order."""
        return [(u, v) for u, row in enumerate(self.rows) for v in _bits(row >> (u + 1) << (u + 1))]

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


class NSBPowerGraph(NamedTuple):
    """A normal-subgroup-based power graph plus its group-side bookkeeping."""

    graph: SimpleGraph
    vertex_element: tuple[int, ...]
    coset_of: tuple[int, ...]


def power_graph(G: FiniteGroup) -> SimpleGraph:
    """Undirected power graph of G: distinct u, v adjacent iff one is a power of the other.

    u is a power of v iff <u> lies in <v>, so adjacency reads only the cyclic
    classes of u and v: each class's walk gives the classes inside it, and
    each row is made once per class.
    """
    class_of, walks = G.cyclic_classes()
    inside = [set(map(class_of.__getitem__, walk)) for walk in walks]
    return SimpleGraph._from_rows(G.labels, _power_rows(class_of, class_of, inside, len(walks)))


def _power_rows(coset_of, class_of, reached, cosets: int) -> list[int]:
    """Rows joining vertices i != j iff coset_of[i] is in reached[class_of[j]] or
    coset_of[j] in reached[class_of[i]].

    reached[c] holds the cosets that the powers of class c's elements fall in.
    in_coset[d] holds the vertices in coset d, and into[d] those of a class
    reaching d; down[c] ORs in_coset[d] for d in reached[c]. A row then reads
    only its vertex's coset and class: into[coset] | down[class], less the
    vertex itself.
    """
    in_coset = [0] * cosets
    members: dict[int, int] = {}  # class -> its vertices
    for i, (d, c) in enumerate(zip(coset_of, class_of)):
        bit = 1 << i
        in_coset[d] |= bit
        members[c] = members.get(c, 0) | bit
    into = [0] * cosets
    down = {}
    for c, bits in members.items():
        row = 0
        for d in reached[c]:
            into[d] |= bits
            row |= in_coset[d]
        down[c] = row
    return [(into[d] | down[c]) & ~(1 << i) for i, (d, c) in enumerate(zip(coset_of, class_of))]


def _check_nsb_inputs(G: FiniteGroup, H: SubgroupSet) -> None:
    _check_normal_subgroup(G, H)
    if H.order == G.order:
        raise ValueError("H = G is rejected: the graph would degenerate to a single vertex")


def nsb_power_graph(G: FiniteGroup, H: SubgroupSet) -> NSBPowerGraph:
    """Direct construction from the definition: rows are unions of coset masks.

    Vertices are e followed by G \\ H in ascending element order; distinct x, y
    are joined iff xH = y^m H or yH = x^n H for some positive exponent. So row x
    is every vertex in one of xH, x^2 H, ... (walked up to e) together with
    every vertex that has a power in xH. The cosets x's powers reach depend
    only on <x>, so they are gathered once per cyclic class of G, from its
    walk; no quotient is built.
    """
    _check_nsb_inputs(G, H)
    coset = _coset_partition(G.table, H.elements)
    vertex_element = (0,) + tuple(a for a in G.elements() if coset[a])  # coset 0 is H
    element_class, walks = G.cyclic_classes()
    class_of = tuple(element_class[a] for a in vertex_element)
    reached = {c: set(map(coset.__getitem__, walks[c])) for c in set(class_of)}
    coset_of = tuple(coset[a] for a in vertex_element)
    labels = tuple(G.labels[a] for a in vertex_element)
    rows = _power_rows(coset_of, class_of, reached, G.order // H.order)
    return NSBPowerGraph(SimpleGraph._from_rows(labels, rows), vertex_element, coset_of)


def expand_quotient_graph(Q: QuotientGroup, H: SubgroupSet) -> NSBPowerGraph:
    """Independent construction: the quotient's power graph from its table, then cosets blown up.

    blocks[c] holds the vertices in coset c. Each coset's powers c, c^2, ...
    are walked along its row of the quotient's table up to the identity, and c
    and each power x take each other's block into lifted[c] and lifted[x]. So
    every non-identity coset becomes a clique of |H| vertices joined to the
    cosets the quotient's power graph joins it to, and the identity vertex,
    coset 0's block alone, ends every walk and is joined to all.
    """
    if Q.subgroup.elements != H.elements or Q.parent.table != H.parent.table:
        raise ValueError("quotient was not built from this subgroup")
    G = Q.parent
    _check_nsb_inputs(G, H)
    qtable = Q.group.table
    members = set(H.elements)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    coset_of = tuple(Q.projection[a] for a in vertex_element)
    blocks = [0] * len(qtable)
    for i, c in enumerate(coset_of):
        blocks[c] |= 1 << i
    lifted = list(blocks)
    for c, row in enumerate(qtable):
        x = c
        for _ in qtable:  # a power of c is the identity within |G/H| steps
            if not x:
                break
            x = row[x]
            lifted[c] |= blocks[x]
            lifted[x] |= blocks[c]
        else:
            raise ValueError(f"{shown(Q.group.name)}: the powers of coset {c} never reach the identity")
    rows = [lifted[c] & ~(1 << i) for i, c in enumerate(coset_of)]
    labels = tuple(G.labels[a] for a in vertex_element)
    return NSBPowerGraph(SimpleGraph._from_rows(labels, rows), vertex_element, coset_of)


def graph_to_json(graph: SimpleGraph) -> str:
    """The stable wire format: {"vertices": [labels], "edges": [[i, j], ...]} with i < j,
    byte for byte what json.dumps(obj, indent=2) writes, plus a newline.

    It is written row by row, not by json.dumps on the whole object: given an indent,
    json uses its pure-Python encoder, one generator step per token, which on Γ(Z256)
    took five times as long and over twice the peak memory. Each label still goes
    through json.dumps, so strings are escaped by json's own C escaper."""
    vertices = ",\n    ".join(map(json.dumps, graph.vertex_labels))
    edges = ",\n    ".join(f"[\n      {u},\n      {v}\n    ]" for u, v in graph.edges())
    edges = f"[\n    {edges}\n  ]" if edges else "[]"
    return f'{{\n  "vertices": [\n    {vertices}\n  ],\n  "edges": {edges}\n}}\n'


def graph_to_dot(graph: SimpleGraph, name: str = "G") -> str:
    """DOT rendering with vertex labels and nothing else; byte-deterministic. In the
    quoted name and labels each backslash is doubled and each '"' becomes "'"."""
    quote = {ord("\\"): "\\\\", ord('"'): "'"}
    lines = [f'graph "{name.translate(quote)}" {{']
    for v in range(graph.vertex_count):
        lines.append(f'  {v} [label="{graph.vertex_labels[v].translate(quote)}"];')
    for u, v in graph.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
