"""Exact graph invariants computed from first principles, so they can act as oracles."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, fields
from functools import reduce
from itertools import combinations, count
from operator import or_

from .groups import FiniteGroup, euler_phi
from .power_graphs import SimpleGraph
from .subgroups import _bits

DEFAULT_SOLVER_BUDGET = 64
DEFAULT_ODD_HOLE_BUDGET = 24


class BudgetExceeded(RuntimeError):
    """Raised when an exact solver would exceed its vertex budget; never approximate."""


def _check_budget(what: str, n: int, budget: int) -> None:
    if n > budget:
        raise BudgetExceeded(f"{what}: {n} vertices exceeds budget {budget}")


# ---------------------------------------------------------------------------
# Cheap structural invariants


def degree_sequence(g: SimpleGraph) -> tuple[int, ...]:
    """Vertex degrees in non-increasing order."""
    return tuple(sorted((g.degree(u) for u in range(g.vertex_count)), reverse=True))


def _layers(rows: tuple[int, ...], mask: int, start: int):
    """Breadth-first layers from start through mask, as vertex masks: {start}
    first, then each layer's neighbours in mask not yet reached."""
    layer = seen = 1 << start
    while layer:
        yield layer
        layer = reduce(or_, (rows[u] for u in _bits(layer))) & mask & ~seen
        seen |= layer


def _reach(rows: tuple[int, ...], mask: int, start: int) -> int:
    """The vertices reached from start through mask alone, start included."""
    return reduce(or_, _layers(rows, mask, start))


def _mask_connected(rows: tuple[int, ...], mask: int, start: int) -> bool:
    """Whether every vertex in mask is reached from start through mask alone."""
    return _reach(rows, mask, start) & mask == mask


def is_connected(g: SimpleGraph) -> bool:
    return _mask_connected(g.rows, (1 << g.vertex_count) - 1, 0)


def is_complete(g: SimpleGraph) -> bool:
    n = g.vertex_count
    return g.edge_count == n * (n - 1) // 2


def is_regular(g: SimpleGraph) -> bool:
    degrees = {g.degree(u) for u in range(g.vertex_count)}
    return len(degrees) <= 1


def is_bipartite(g: SimpleGraph) -> bool:
    """No edge inside a breadth-first layer of any component; edges of such a
    search only join a layer to itself or to the next one."""
    rows = g.rows
    unseen = (1 << g.vertex_count) - 1
    while unseen:
        for layer in _layers(rows, unseen, (unseen & -unseen).bit_length() - 1):
            unseen &= ~layer
            if any(rows[u] & layer for u in _bits(layer)):
                return False
    return True


def is_tree(g: SimpleGraph) -> bool:
    return is_connected(g) and g.edge_count == g.vertex_count - 1


def is_eulerian(g: SimpleGraph) -> bool:
    """Connected with every degree even; a single vertex counts as Eulerian."""
    return is_connected(g) and all(g.degree(u) % 2 == 0 for u in range(g.vertex_count))


def girth(g: SimpleGraph) -> int | None:
    """Length of a shortest cycle from breadth-first layers; None if acyclic.

    From a root s, a vertex of layer k with two neighbours in layer k-1 closes
    a walk of length 2k through s, and an edge inside layer k closes one of
    length 2k+1. Either walk holds a cycle no longer than itself. From a vertex
    of a shortest cycle of length c, the cycle's far vertex (c even) or far
    edge (c odd) lies in layer c // 2, so the least such walk over all roots is
    the girth. A root stops at its first walk, or once 2k reaches the best
    length so far. A root that finds no walk spans a tree component: skip its
    other vertices.
    """
    rows = g.rows
    full = (1 << g.vertex_count) - 1
    best: int | None = None
    in_trees = 0
    for s in range(g.vertex_count):
        if (in_trees >> s) & 1:
            continue
        above = reached = 0
        for k, layer in enumerate(_layers(rows, full, s)):
            if best is not None and 2 * k >= best:
                break
            if any((rows[v] & above).bit_count() > 1 for v in _bits(layer)):
                best = 2 * k
                break
            if any(rows[u] & layer for u in _bits(layer)):
                if k == 1:
                    return 3
                best = 2 * k + 1
                break
            above = layer
            reached |= layer
        else:
            in_trees |= reached
    return best


# ---------------------------------------------------------------------------
# Exact maximum clique: branch and bound over bitsets with pivoting


def clique_number(g: SimpleGraph, budget: int = DEFAULT_SOLVER_BUDGET) -> tuple[int, tuple[int, ...]]:
    """Exact clique number with one witness clique."""
    n = g.vertex_count
    _check_budget("clique_number", n, budget)
    rows = g.rows
    best_size = 0
    best_mask = 0

    def expand(r: int, r_size: int, p: int, x: int) -> None:
        nonlocal best_size, best_mask
        if p == 0 and x == 0:
            if r_size > best_size:
                best_size = r_size
                best_mask = r
            return
        if r_size + p.bit_count() <= best_size:
            return
        pivot = -1
        pivot_score = -1
        for u in _bits(p | x):
            score = (p & rows[u]).bit_count()
            if score > pivot_score:
                pivot_score = score
                pivot = u
        for v in _bits(p & ~rows[pivot]):
            bit = 1 << v
            expand(r | bit, r_size + 1, p & rows[v], x & rows[v])
            p &= ~bit
            x |= bit

    expand(0, 0, (1 << n) - 1, 0)
    return best_size, tuple(_bits(best_mask))


# ---------------------------------------------------------------------------
# Exact chromatic number: iterative deepening from the clique bound


def _k_colorable(g: SimpleGraph, k: int, clique: tuple[int, ...]) -> list[int] | None:
    """Backtracking k-colorability with the max clique pre-colored for symmetry breaking."""
    n = g.vertex_count
    colors = [-1] * n
    sat = [0] * n
    full = (1 << k) - 1
    for c, v in enumerate(clique):
        if c >= k:
            return None
        colors[v] = c
        for w in g.neighbors(v):
            sat[w] |= 1 << c

    def pick() -> int:
        return max(
            (v for v in range(n) if colors[v] == -1),
            key=lambda v: ((sat[v] & full).bit_count(), g.degree(v), -v),
        )

    def solve(remaining: int) -> bool:
        if remaining == 0:
            return True
        v = pick()
        avail = full & ~sat[v]
        for c in _bits(avail):
            colors[v] = c
            touched = []
            ok = True
            for w in g.neighbors(v):
                if colors[w] == -1 and not (sat[w] >> c) & 1:
                    sat[w] |= 1 << c
                    touched.append(w)
                    if (sat[w] & full) == full:
                        ok = False
            if ok and solve(remaining - 1):
                return True
            colors[v] = -1
            for w in touched:
                sat[w] &= ~(1 << c)
        return False

    if solve(n - len(clique)):
        return colors
    return None


def chromatic_number(
    g: SimpleGraph, budget: int = DEFAULT_SOLVER_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper coloring witness: the first k from the
    clique number up for which the k-coloring search succeeds."""
    _check_budget("chromatic_number", g.vertex_count, budget)
    k, clique = clique_number(g, budget)
    while (colors := _k_colorable(g, k, clique)) is None:
        k += 1
    return k, tuple(colors)


# ---------------------------------------------------------------------------
# Vertex connectivity: Menger via unit-capacity flow on the split digraph


def _max_vertex_disjoint_paths(g: SimpleGraph, s: int, t: int) -> tuple[int, list[int]]:
    """Max s-t vertex-disjoint paths and a minimum separating vertex set; s, t non-adjacent.

    Augments on the split digraph without building it: state (v, 0) is v_in and
    (v, 1) is v_out, v_in -> v_out carries v's unit capacity, and each edge is
    unbounded from either end's out-copy to the other's in-copy. The whole flow
    is prev[v], the vertex whose path unit enters v (-1 while v is free). The
    states a failed search reaches are the residual reach, which gives the cut.
    """
    rows = g.rows
    prev = [-1] * g.vertex_count
    source, sink = (s, 1), (t, 0)
    flow = 0
    while True:
        parent = {source: source}
        queue = deque([source])
        reached_in = 1 << s  # in-copies reached; s_in is never entered
        while queue and sink not in parent:
            v, out = state = queue.popleft()
            if out:
                undo = (1 << v) if prev[v] != -1 else 0  # back along a used v's internal arc
                fresh = (rows[v] | undo) & ~reached_in
                reached_in |= fresh
                steps = [(w, 0) for w in _bits(fresh)]
            else:
                steps = [(v, 1) if prev[v] == -1 else (prev[v], 1)]
            for step in steps:
                if step not in parent:
                    parent[step] = state
                    queue.append(step)
        if sink not in parent:
            return flow, [v for v, out in parent if not out and (v, 1) not in parent]
        b = sink
        while b != source:
            a = parent[b]
            if a[1] and not b[1]:  # a_out -> b_in: b's path unit now enters from a
                prev[b[0]] = -1 if a[0] == b[0] else a[0]
            b = a
        flow += 1


def vertex_connectivity(g: SimpleGraph) -> tuple[int, tuple[int, ...] | None]:
    """Exact kappa with a minimum vertex cut, from flows over Esfahanian–Hakimi's pairs.

    Fix a vertex v of minimum degree and let S be a minimum cut. Either S misses
    v, and then it separates v from some non-neighbour; or S contains v, and
    then, being minimal, it separates two of v's neighbours. So flows from v to
    each non-neighbour and between each non-adjacent pair of v's neighbours
    suffice: O(n + delta^2) flows instead of one per non-adjacent pair
    (Esfahanian & Hakimi, *Networks* 14, 1984).

    Complete graphs return n - 1 by convention (no cut witness); disconnected
    graphs return 0 with an empty witness.
    """
    n = g.vertex_count
    if n == 1 or is_complete(g):
        return n - 1, None
    v = min(range(n), key=g.degree)
    pairs = [(v, t) for t in range(n) if t != v and not g.has_edge(v, t)]
    pairs += [(a, b) for a, b in combinations(g.neighbors(v), 2) if not g.has_edge(a, b)]
    best, best_cut = n, []
    for s, t in pairs:
        value, cut = _max_vertex_disjoint_paths(g, s, t)
        if value < best:
            best, best_cut = value, cut
            if best == 0:
                break
    return best, tuple(sorted(best_cut))


# ---------------------------------------------------------------------------
# Exact planarity: density filter, blocks, Demoucron face embedding


def _blocks(rows: tuple[int, ...]) -> list[int]:
    """The blocks (biconnected components) as vertex masks, by Tarjan's lowpoints.

    Iterative depth-first search: a vertex stack, each vertex's unwalked
    neighbours as a shrinking mask, and a stack of the vertices whose block is
    still open. Two blocks share at most one vertex, so every edge with both
    ends in a block belongs to that block: rows[v] & block is exactly the
    block's adjacency.
    """
    n = len(rows)
    disc = [0] * n  # discovery time; 0 while unvisited
    low = [0] * n
    todo = list(rows)
    clock = count(1)
    blocks: list[int] = []
    for root in range(n):
        if disc[root]:
            continue
        disc[root] = low[root] = next(clock)
        stack, open_vertices = [root], [root]
        while stack:
            u = stack[-1]
            if todo[u]:
                v = (todo[u] & -todo[u]).bit_length() - 1
                todo[u] &= todo[u] - 1
                if disc[v]:  # the parent too: it lowers low[u] to disc[parent], which >= allows
                    low[u] = min(low[u], disc[v])
                else:
                    disc[v] = low[v] = next(clock)
                    stack.append(v)
                    open_vertices.append(v)
                continue
            stack.pop()
            if stack:
                p = stack[-1]
                low[p] = min(low[p], low[u])
                if low[u] >= disc[p]:  # p separates u's subtree: p and its open part are a block
                    i = open_vertices.index(u)
                    blocks.append(sum((1 << w for w in open_vertices[i:]), 1 << p))
                    del open_vertices[i:]
    return blocks


def _path(rows: tuple[int, ...], start: int, through: int, targets: int) -> list[int]:
    """A shortest path from start to a vertex of targets with its inner vertices in through.

    Breadth-first; the first step goes into through only, later steps into
    through or targets. The caller guarantees that such a path exists.
    """
    prev: dict[int, int] = {}
    seen = 1 << start
    queue = deque([start])
    while queue:
        u = queue.popleft()
        fresh = rows[u] & (through if u == start else through | targets) & ~seen
        seen |= fresh
        for v in _bits(fresh):
            prev[v] = u
            if (targets >> v) & 1:
                path = [v]
                while v != start:
                    v = prev[v]
                    path.append(v)
                return path[::-1]
            queue.append(v)
    raise AssertionError("a fragment of a block always links two attachments")


def _demoucron_planar(rows: tuple[int, ...], block: int) -> bool:
    """Demoucron's incremental embedding of one block, one fragment path per step.

    A fragment is an unembedded edge between embedded vertices, or a component
    of the unembedded vertices with its edges to the embedded ones (its
    attachments). It fits a face whose vertex mask holds all its attachments. A
    fragment that fits no face makes the block non-planar; one that fits one
    face only is placed first.
    """
    rows = tuple(row & block for row in rows)
    n = block.bit_count()
    m = sum(rows[v].bit_count() for v in _bits(block)) // 2
    if m > 3 * n - 6:
        return False
    embedded = [0] * len(rows)  # embedded[v]: v's neighbours along embedded edges

    def face(cycle: list[int]) -> tuple[list[int], int]:
        return cycle, sum(1 << v for v in cycle)

    def embed(path: list[int]) -> None:
        for a, b in zip(path, path[1:]):
            embedded[a] |= 1 << b
            embedded[b] |= 1 << a

    start = (block & -block).bit_length() - 1
    first = (rows[start] & -rows[start]).bit_length() - 1
    cycle = _path(rows, first, block & ~(1 << start | 1 << first), 1 << start)
    faces = [face(cycle), face(cycle[::-1])]
    placed = faces[0][1]
    embed(cycle + cycle[:1])
    left = m - len(cycle)
    while left:
        fragments = [
            (1 << u | 1 << v, 0)
            for u in _bits(placed)
            for v in _bits(rows[u] & placed & ~embedded[u] & ~((2 << u) - 1))
        ]
        rest = block & ~placed
        while rest:
            interior = _reach(rows, rest, (rest & -rest).bit_length() - 1)
            rest &= ~interior
            att = reduce(or_, (rows[w] for w in _bits(interior))) & placed
            fragments.append((att, interior))
        fits = [[i for i, (_, mask) in enumerate(faces) if att & ~mask == 0] for att, _ in fragments]
        if not all(fits):
            return False
        k = next((k for k, f in enumerate(fits) if len(f) == 1), 0)  # a forced fragment first
        (att, interior), face_idx = fragments[k], fits[k][0]
        a1 = (att & -att).bit_length() - 1
        path = _path(rows, a1, interior, att & ~(1 << a1)) if interior else list(_bits(att))
        embed(path)
        left -= len(path) - 1
        inner = path[1:-1]
        placed |= sum(1 << v for v in inner)
        boundary = faces[face_idx][0]
        r = boundary.index(a1)  # rotate the face to start at the path's first vertex
        boundary = boundary[r:] + boundary[:r]
        j = boundary.index(path[-1])
        faces[face_idx] = face(boundary[: j + 1] + inner[::-1])
        faces.append(face(boundary[j:] + boundary[:1] + inner))
    return True


def is_planar(g: SimpleGraph) -> bool:
    """Exact planarity: edge-density rejection, then Demoucron on each block.

    A graph is planar iff each of its blocks is, and a block of at most four
    vertices always is. Polynomial, so there is no budget.
    """
    n = g.vertex_count
    if n > 4 and g.edge_count > 3 * n - 6:
        return False
    blocks = _blocks(g.rows)
    return all(_demoucron_planar(g.rows, block) for block in blocks if block.bit_count() > 4)


# ---------------------------------------------------------------------------
# Perfect graphs: bounded exhaustive odd-hole search in the graph and complement


def _has_odd_hole(g: SimpleGraph) -> bool:
    n = g.vertex_count
    if n < 5:
        return False
    rows = g.rows

    def extend(v0: int, allowed: int, path_len: int, last: int, visited: int, bad: int) -> bool:
        cands = rows[last] & allowed & ~visited & ~bad
        for u in _bits(cands):
            if (rows[u] >> v0) & 1:
                length = path_len + 1
                if length >= 5 and length % 2 == 1:
                    return True
            elif extend(v0, allowed, path_len + 1, u, visited | (1 << u), bad | rows[last]):
                return True
        return False

    full = (1 << n) - 1
    for v0 in range(n):
        allowed = full & ~((1 << (v0 + 1)) - 1)  # the hole's smallest vertex is v0
        for v1 in _bits(rows[v0] & allowed):
            if extend(v0, allowed, 2, v1, (1 << v0) | (1 << v1), 0):
                return True
    return False


def is_perfect(g: SimpleGraph, budget: int = DEFAULT_ODD_HOLE_BUDGET) -> bool:
    """No induced odd cycle of length >= 5 in the graph or its complement.

    The budget counts the input's vertices, but the search runs on the true-twin
    quotient: one vertex per class of equal closed neighbourhoods. This is exact.
    Two true twins are adjacent and have the same other neighbours, so no induced
    cycle or co-cycle of length >= 5 holds both; and swapping each vertex of a
    hole for its class representative keeps the hole induced.
    """
    _check_budget("is_perfect", g.vertex_count, budget)
    rows = g.rows
    first_of_class: dict[int, int] = {}
    for v, row in enumerate(rows):
        first_of_class.setdefault(row | 1 << v, v)
    keep = list(first_of_class.values())
    q = SimpleGraph._from_rows(
        [g.vertex_labels[v] for v in keep],
        [sum(((rows[v] >> w) & 1) << i for i, w in enumerate(keep)) for v in keep],
    )
    return not _has_odd_hole(q) and not _has_odd_hole(q.complement())


# ---------------------------------------------------------------------------
# Hamiltonian cycles: exact backtracking with degree and connectivity pruning


def hamiltonian_cycle(
    g: SimpleGraph, budget: int = DEFAULT_SOLVER_BUDGET
) -> tuple[int, ...] | None:
    """A Hamiltonian cycle as a vertex sequence, or None when provably absent."""
    n = g.vertex_count
    _check_budget("hamiltonian_cycle", n, budget)
    if n < 3:
        return None
    rows = g.rows
    if rows[0].bit_count() < 2:  # solve(0, 1) checks every other degree and the connectivity
        return None
    full = (1 << n) - 1
    nbr_order = [
        sorted(_bits(rows[u]), key=lambda v: (rows[v].bit_count(), v)) for u in range(n)
    ]
    path = [0]

    def solve(u: int, visited: int) -> bool:
        if len(path) == n:
            return (rows[u] >> 0) & 1 == 1
        remaining = (full & ~visited) | (1 << u)
        if not _mask_connected(rows, remaining, u):
            return False
        usable = full & ~visited | (1 << u) | 1
        for w in _bits(full & ~visited):
            if (rows[w] & usable).bit_count() < 2:
                return False
        for v in nbr_order[u]:
            bit = 1 << v
            if visited & bit:
                continue
            path.append(v)
            if solve(v, visited | bit):
                return True
            path.pop()
        return False

    if solve(0, 1):
        return tuple(path)
    return None


# ---------------------------------------------------------------------------
# Degree formula for power graphs


def degree_in_power_graph_formula(G: FiniteGroup) -> tuple[int, ...]:
    """Closed-form degree of every element in the power graph: sum of phi over the
    cyclic subgroups properly containing <v>, plus order(v) - 1."""
    spans = [G.cyclic_subgroup(a) for a in G.elements()]
    weighted = [(c, euler_phi(len(c))) for c in set(spans)]
    return tuple(sum(w for c, w in weighted if span < c) + len(span) - 1 for span in spans)


# ---------------------------------------------------------------------------
# One-shot invariant bundle


@dataclass
class GraphInvariants:
    """Every invariant the toolkit knows how to compute for one graph."""

    vertex_count: int
    edge_count: int
    degree_sequence: tuple[int, ...]
    is_connected: bool
    is_complete: bool
    is_regular: bool
    is_bipartite: bool
    is_tree: bool
    is_eulerian: bool
    girth: int | None
    clique_number: int | None = None
    chromatic_number: int | None = None
    vertex_connectivity: int | None = None
    is_planar: bool | None = None
    is_perfect: bool | None = None
    is_hamiltonian: bool | None = None
    clique_witness: tuple[int, ...] | None = None
    coloring: tuple[int, ...] | None = None
    vertex_cut: tuple[int, ...] | None = None
    hamiltonian_cycle: tuple[int, ...] | None = None
    skipped: tuple[str, ...] = ()


def basic_invariants(g: SimpleGraph) -> GraphInvariants:
    """The polynomial-time block: counts, degrees, connectivity, parity, and shape flags."""
    return GraphInvariants(
        vertex_count=g.vertex_count,
        edge_count=g.edge_count,
        degree_sequence=degree_sequence(g),
        is_connected=is_connected(g),
        is_complete=is_complete(g),
        is_regular=is_regular(g),
        is_bipartite=is_bipartite(g),
        is_tree=is_tree(g),
        is_eulerian=is_eulerian(g),
        girth=girth(g),
    )


def compute_invariants(
    g: SimpleGraph,
    solver_budget: int = DEFAULT_SOLVER_BUDGET,
    odd_hole_budget: int = DEFAULT_ODD_HOLE_BUDGET,
) -> GraphInvariants:
    """Everything at once; budget-exceeding solver fields stay None and are listed in skipped."""
    inv = basic_invariants(g)
    skipped: list[str] = []
    try:
        inv.clique_number, inv.clique_witness = clique_number(g, solver_budget)
        inv.chromatic_number, inv.coloring = chromatic_number(g, solver_budget)
    except BudgetExceeded:
        skipped.extend(["clique_number", "chromatic_number"])
    inv.vertex_connectivity, inv.vertex_cut = vertex_connectivity(g)
    inv.is_planar = is_planar(g)
    try:
        inv.is_perfect = is_perfect(g, odd_hole_budget)
    except BudgetExceeded:
        skipped.append("is_perfect")
    try:
        cycle = hamiltonian_cycle(g, solver_budget)
        inv.is_hamiltonian = cycle is not None
        inv.hamiltonian_cycle = cycle
    except BudgetExceeded:
        skipped.append("is_hamiltonian")
    inv.skipped = tuple(skipped)
    return inv


# Witness fields and their keys in the "witnesses" sub-object.
_WITNESS_KEYS = {
    "clique_witness": "clique",
    "coloring": "coloring",
    "vertex_cut": "vertex_cut",
    "hamiltonian_cycle": "hamiltonian_cycle",
}


def invariants_to_json_obj(inv: GraphInvariants) -> dict:
    """Flat JSON object in field order; witnesses grouped under one sub-object."""
    obj, witnesses = {}, {}
    for f in fields(inv):
        value = getattr(inv, f.name)
        if f.name in _WITNESS_KEYS:
            if value is not None:
                witnesses[_WITNESS_KEYS[f.name]] = list(value)
        elif f.name != "skipped":
            obj[f.name] = list(value) if isinstance(value, tuple) else value
    if witnesses:
        obj["witnesses"] = witnesses
    if inv.skipped:
        obj["skipped"] = list(inv.skipped)
    return obj
