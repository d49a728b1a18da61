"""Exact graph invariants computed from first principles, so they can act as oracles."""

from __future__ import annotations

from collections import deque
from functools import reduce
from itertools import combinations, count
from operator import or_
from typing import NamedTuple

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


def _universal(rows: tuple[int, ...]) -> int:
    """The mask of the universal vertices, those adjacent to every other vertex."""
    full = (1 << len(rows)) - 1
    return sum(1 << v for v, row in enumerate(rows) if row | 1 << v == full)


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
    """Exact clique number with one witness clique.

    The universal vertices U extend every clique, so the search starts from U
    and branches only on G - U: omega(G) = |U| + omega(G - U), and the witness
    always holds U.
    """
    n = g.vertex_count
    _check_budget("clique_number", n, budget)
    rows = g.rows
    universal = _universal(rows)
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

    expand(universal, universal.bit_count(), (1 << n) - 1 & ~universal, 0)
    return best_size, tuple(_bits(best_mask))


# ---------------------------------------------------------------------------
# Exact chromatic number: iterative deepening from the clique bound


def _k_colorable(rows: tuple[int, ...], k: int, clique: tuple[int, ...]) -> list[int] | None:
    """Backtracking k-colorability, DSATUR-style (Brélaz 1979), with a maximum
    clique pre-colored for symmetry breaking; colours are tried in ascending order.

    The next vertex maximises (saturation, degree, -v). Each vertex keeps one
    key that orders like that tuple, -1 once coloured, so one max() picks it.
    seen[c] holds the vertices with a neighbour coloured c: colouring v with c
    raises the saturation of rows[v] & uncoloured & ~seen[c] alone, and undoing
    it restores seen[c] and those keys.
    """
    n = len(rows)
    w = n.bit_length()  # degree and n - 1 - v each fit in w bits
    low, step = (1 << w) - 1, 1 << 2 * w
    full = k * step  # a key this large has no colour left
    colors = [-1] * n
    key = [rows[v].bit_count() << w | n - 1 - v for v in range(n)]
    seen = [0] * k
    uncoloured = (1 << n) - 1 - sum(1 << v for v in clique)
    for c, v in enumerate(clique):
        colors[v] = c
        key[v] = -1
        seen[c] = rows[v]
        for u in _bits(rows[v] & uncoloured):
            key[u] += step

    def solve(uncoloured: int) -> bool:
        if not uncoloured:
            return True
        top = max(key)
        v = n - 1 - (top & low)
        key[v] = -1
        row, rest = rows[v], uncoloured & ~(1 << v)
        for c in range(k):
            before = seen[c]
            if before >> v & 1:
                continue
            rise = row & rest & ~before
            ok = True
            for u in _bits(rise):
                key[u] += step
                if key[u] >= full:
                    ok = False
            colors[v] = c
            seen[c] = before | row
            if ok and solve(rest):
                return True
            seen[c] = before
            for u in _bits(rise):
                key[u] -= step
        key[v] = top
        return False

    if solve(uncoloured):
        return colors
    return None


def chromatic_number(
    g: SimpleGraph, budget: int = DEFAULT_SOLVER_BUDGET
) -> tuple[int, tuple[int, ...]]:
    """Exact chromatic number with a proper coloring witness: the first k from
    omega up for which the k-coloring search succeeds, seeded by the clique
    witness.

    The witness holds every universal vertex, so each one is precoloured and
    never branched on; every other vertex sees all of their colours.
    """
    _check_budget("chromatic_number", g.vertex_count, budget)
    _, clique = clique_number(g, budget)
    k = len(clique)
    while (colors := _k_colorable(g.rows, k, clique)) is None:
        k += 1
    return k, tuple(colors)


# ---------------------------------------------------------------------------
# Vertex connectivity: Menger via unit-capacity flow on the split digraph


def _max_vertex_disjoint_paths(rows: tuple[int, ...], s: int, t: int) -> tuple[int, list[int]]:
    """Max s-t vertex-disjoint paths and a minimum separating vertex set; s, t non-adjacent.

    Augments on the split digraph without building it: state (v, 0) is v_in and
    (v, 1) is v_out, v_in -> v_out carries v's unit capacity, and each edge is
    unbounded from either end's out-copy to the other's in-copy. The whole flow
    is prev[v], the vertex whose path unit enters v (-1 while v is free). The
    states a failed search reaches are the residual reach, which gives the cut.
    """
    prev = [-1] * len(rows)
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


def _kappa(rows: tuple[int, ...], mask: int) -> tuple[int, list[int]]:
    """Kappa and a minimum cut of the connected, non-complete subgraph on mask,
    by flows over Esfahanian–Hakimi's pairs; rows cut to mask keep the flows in it."""
    rows = tuple(row & mask for row in rows)
    v = min(_bits(mask), key=lambda u: rows[u].bit_count())
    pairs = [(v, t) for t in _bits(mask & ~rows[v] & ~(1 << v))]
    pairs += [(a, b) for a, b in combinations(_bits(rows[v]), 2) if not (rows[a] >> b) & 1]
    best, best_cut = mask.bit_count(), []
    for s, t in pairs:
        value, cut = _max_vertex_disjoint_paths(rows, s, t)
        if value < best:
            best, best_cut = value, cut
    return best, best_cut


def vertex_connectivity(g: SimpleGraph) -> tuple[int, tuple[int, ...] | None]:
    """Exact kappa with a minimum vertex cut: universal vertices first, then flows
    over Esfahanian–Hakimi's pairs.

    Let U be the universal vertices of a non-complete G and R = G - U. A vertex
    of U left outside a set S joins every two vertices of G - S, so every vertex
    cut of G holds U, and S is a cut of G exactly when S - U is a cut of R:
    kappa(G) = |U| + kappa(R). When R is disconnected, U itself is a minimum
    cut and no flow runs. Otherwise R has at least two vertices, is not
    complete (G would be) and has no universal vertex (it would be universal in
    G), so one pass suffices, and the flows run on R, a mask of G's rows.

    There, fix a vertex v of minimum degree and let S be a minimum cut. Either S
    misses v, and then it separates v from some non-neighbour; or S contains v,
    and then, being minimal, it separates two of v's neighbours. So flows from
    v to each non-neighbour and between each non-adjacent pair of v's
    neighbours suffice: O(n + delta^2) flows instead of one per non-adjacent
    pair (Esfahanian & Hakimi, *Networks* 14, 1984).

    Complete graphs return n - 1 by convention (no cut witness); disconnected
    graphs return 0 with an empty witness.
    """
    n = g.vertex_count
    if n == 1 or is_complete(g):
        return n - 1, None
    universal = _universal(g.rows)
    rest = (1 << n) - 1 & ~universal
    if not _mask_connected(g.rows, rest, (rest & -rest).bit_length() - 1):
        return universal.bit_count(), tuple(_bits(universal))
    k, cut = _kappa(g.rows, rest)
    return universal.bit_count() + k, tuple(sorted([*_bits(universal), *cut]))


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

    Walks the breadth-first layers of start through `through` to the first one
    after {start} with a neighbour in targets, then back one layer at a time,
    so the first step never enters targets (disjoint from through). The caller
    guarantees that such a path exists.
    """
    layers = []
    for layer in _layers(rows, through | 1 << start, start):
        hit = targets & reduce(or_, (rows[u] for u in _bits(layer))) if layers else 0
        layers.append(layer)
        if hit:
            path = [(hit & -hit).bit_length() - 1]
            for back in reversed(layers):
                step = rows[path[-1]] & back
                path.append((step & -step).bit_length() - 1)
            return path[::-1]
    raise AssertionError("a fragment of a block always links two attachments")


def _demoucron_planar(rows: tuple[int, ...], block: int) -> list[list[int]] | None:
    """Demoucron's incremental embedding of one block: its faces, or None if it is not planar.

    A fragment is an unembedded edge between placed vertices, or a component of
    the unplaced vertices with its edges to the placed ones (its attachments).
    It fits a face whose vertex set holds all its attachments. A fragment that
    fits no face makes the block non-planar; one that fits one face only is
    placed first. Each step embeds a path of one fragment across a face it
    fits, which splits that face into f1 and f2. The two walk the path in
    opposite directions, so each edge ends on two face walks, once each way.

    Fragments and the faces each one fits are built once, from the first
    cycle, and kept from step to step. After a step, only the fragments that
    fit the split face are tested again, and only against f1 and f2. New
    fragments come only from the placed fragment's interior less the path's
    inner vertices: the unembedded edges from an inner vertex to a placed one,
    and the components of what is left. They too are tested against f1 and f2
    alone. This is exact:
    - no other fragment touches the inner vertices, so its attachments, and
      its fits outside the split face, are what a full rebuild would give;
    - every new fragment attaches to an inner vertex, and only f1 and f2 hold one.
    So each step sees the fragments and fit sets of a full rebuild, in another
    order, and Demoucron is correct for any choice among unforced fragments
    (Demoucron, Malgrange and Pertuiset, Rev. Française Rech. Opér. 8, 1964).
    """
    rows = tuple(row & block for row in rows)
    n = block.bit_count()
    m = sum(rows[v].bit_count() for v in _bits(block)) // 2
    if m > 3 * n - 6:
        return None
    embedded = [0] * len(rows)  # embedded[v]: v's neighbours along embedded edges

    def embed(path: list[int]) -> None:
        for a, b in zip(path, path[1:]):
            embedded[a] |= 1 << b
            embedded[b] |= 1 << a

    def fragments(new: int, rest: int, near: tuple[int, int]) -> list[list]:
        """[attachments, interior, fitting faces among near] of each fragment
        that placing `new` makes: the unembedded edges with an end in new, and
        the components of rest."""
        made = [
            (1 << u | 1 << v, 0)
            for u in _bits(new)
            for v in _bits(rows[u] & placed & ~embedded[u] & ~(new & ((2 << u) - 1)))
        ]
        while rest:
            interior = _reach(rows, rest, (rest & -rest).bit_length() - 1)
            rest &= ~interior
            made.append((reduce(or_, (rows[w] for w in _bits(interior))) & placed, interior))
        return [[att, interior, [f for f in near if att & ~masks[f] == 0]] for att, interior in made]

    start = (block & -block).bit_length() - 1
    first = (rows[start] & -rows[start]).bit_length() - 1
    cycle = _path(rows, first, block & ~(1 << start | 1 << first), 1 << start)
    faces = [cycle, cycle[::-1]]
    placed = sum(1 << v for v in cycle)
    masks = [placed, placed]
    embed(cycle + cycle[:1])
    pending = fragments(placed, block & ~placed, (0, 1))
    while pending:
        k = next((k for k, p in enumerate(pending) if len(p[2]) == 1), 0)  # a forced fragment first
        att, interior, (f1, *_) = pending.pop(k)
        a1 = (att & -att).bit_length() - 1
        path = _path(rows, a1, interior, att & ~(1 << a1)) if interior else list(_bits(att))
        embed(path)
        inner = path[1:-1]
        new = sum(1 << v for v in inner)
        placed |= new
        boundary = faces[f1]
        r = boundary.index(a1)  # rotate the face to start at the path's first vertex
        boundary = boundary[r:] + boundary[:r]
        j = boundary.index(path[-1])
        f2 = len(faces)
        faces[f1] = boundary[: j + 1] + inner[::-1]
        faces.append(boundary[j:] + boundary[:1] + inner)
        masks[f1] = sum(1 << v for v in faces[f1])
        masks.append(sum(1 << v for v in faces[f2]))
        for p in pending:
            if f1 in p[2]:
                p[2] = [h for h in p[2] if h != f1] + [h for h in (f1, f2) if p[0] & ~masks[h] == 0]
        pending += fragments(new, interior & ~new, (f1, f2))
        if not all(p[2] for p in pending):
            return None
    return faces


def is_planar(g: SimpleGraph) -> bool:
    """Exact planarity: edge-density rejection, then Demoucron on each block.

    A graph is planar iff each of its blocks is, and a block of at most four
    vertices always is. Polynomial, so there is no budget.
    """
    n = g.vertex_count
    if n > 4 and g.edge_count > 3 * n - 6:
        return False
    blocks = _blocks(g.rows)
    return all(_demoucron_planar(g.rows, block) is not None for block in blocks if block.bit_count() > 4)


# ---------------------------------------------------------------------------
# Perfect graphs: bounded exhaustive odd-hole search in the graph and complement


def _has_odd_hole(rows: tuple[int, ...], mask: int) -> bool:
    """An induced odd cycle of length >= 5 in the subgraph on mask."""
    if mask.bit_count() < 5:
        return False

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

    for v0 in _bits(mask):
        allowed = mask & ~((1 << (v0 + 1)) - 1)  # the hole's smallest vertex is v0
        for v1 in _bits(rows[v0] & allowed):
            if extend(v0, allowed, 2, v1, (1 << v0) | (1 << v1), 0):
                return True
    return False


def is_perfect(g: SimpleGraph, budget: int = DEFAULT_ODD_HOLE_BUDGET) -> bool:
    """No induced odd cycle of length >= 5 in the graph or its complement.

    The search runs once twins are deleted: a vertex goes while a kept vertex has
    its closed (a true twin) or its open (a false twin) neighbourhood among the kept
    ones. Exact, as G is perfect iff G - v is for a twin v (Lovasz's replication
    lemma; false twins are true twins of the complement); a cograph leaves one
    vertex. The budget counts the input's vertices, so no refusal depends on this.
    Both searches run on the kept vertices as a mask, of the rows and of the
    complement's rows.
    """
    _check_budget("is_perfect", g.vertex_count, budget)
    rows, keep, before = g.rows, (1 << g.vertex_count) - 1, 0
    while keep != before:
        before = keep
        neighbourhoods = set()  # a closed one holds its vertex, an open one does not
        for v in _bits(before):
            open_ = rows[v] & keep
            if open_ in neighbourhoods or open_ | 1 << v in neighbourhoods:
                keep &= ~(1 << v)
            else:
                neighbourhoods.update((open_, open_ | 1 << v))
    complement = tuple(keep & ~row & ~(1 << v) for v, row in enumerate(rows))
    return not _has_odd_hole(rows, keep) and not _has_odd_hole(complement, keep)


# ---------------------------------------------------------------------------
# Hamiltonian cycles: exact backtracking with degree and connectivity pruning


def _tough_cut(rows: tuple[int, ...]) -> int:
    """A vertex set S, as a mask, whose removal leaves more than |S| components,
    or 0 when no degree-ordered prefix does.

    The candidates are the prefixes of the vertices sorted by degree, highest
    first, that end where the degree drops and leave at least 3 vertices.
    """
    n = len(rows)
    degree = [row.bit_count() for row in rows]
    order = sorted(range(n), key=lambda v: (-degree[v], v))
    full = (1 << n) - 1
    cut = 0
    for size, (v, w) in enumerate(zip(order, order[1 : n - 2]), 1):  # w follows the prefix
        cut |= 1 << v
        if degree[v] == degree[w]:
            continue
        rest, parts = full & ~cut, 0
        while rest and parts <= size:
            rest &= ~_reach(rows, rest, (rest & -rest).bit_length() - 1)
            parts += 1
        if parts > size:
            return cut
    return 0


def hamiltonian_cycle(
    g: SimpleGraph, budget: int = DEFAULT_SOLVER_BUDGET
) -> tuple[int, ...] | None:
    """A Hamiltonian cycle as a vertex sequence, or None when provably absent.

    A complete graph of n >= 3 vertices gets 0, 1, ..., n-1 without a search;
    that is also the cycle the search finds there first.

    Within the budget, a graph that is not 1-tough gets None without a search:
    a Hamiltonian graph minus any vertex set S has at most |S| components
    (Chvatal, "Tough graphs and Hamiltonian circuits", Discrete Math. 5, 1973),
    and `_tough_cut` tries the degree-ordered prefixes as S. Any other graph
    goes to the backtracking, which stays the one complete search.
    """
    n = g.vertex_count
    _check_budget("hamiltonian_cycle", n, budget)
    if n < 3:
        return None
    if is_complete(g):
        return tuple(range(n))
    rows = g.rows
    if rows[0].bit_count() < 2:  # solve(0, 1) checks every other degree and the connectivity
        return None
    if _tough_cut(rows):
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
    cyclic subgroups properly containing <v>, plus order(v) - 1.

    The sum is made once per cyclic class: each class d's walk names the
    classes inside <d>, and phi(|<d>|) is added to each of them but d.
    """
    class_of, walks = G.cyclic_classes()
    degrees = [len(walk) - 1 for walk in walks]
    for d, walk in enumerate(walks):
        weight = euler_phi(len(walk))
        for c in set(map(class_of.__getitem__, walk)) - {d}:
            degrees[c] += weight
    return tuple(map(degrees.__getitem__, class_of))


# ---------------------------------------------------------------------------
# One-shot invariant bundle


class GraphInvariants(NamedTuple):
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
    solved: dict[str, object] = {}  # the solver fields answered; the rest stay None
    skipped: list[str] = []
    try:
        solved["clique_number"], solved["clique_witness"] = clique_number(g, solver_budget)
        solved["chromatic_number"], solved["coloring"] = chromatic_number(g, solver_budget)
    except BudgetExceeded:
        skipped.extend(["clique_number", "chromatic_number"])
    solved["vertex_connectivity"], solved["vertex_cut"] = vertex_connectivity(g)
    solved["is_planar"] = is_planar(g)
    try:
        solved["is_perfect"] = is_perfect(g, odd_hole_budget)
    except BudgetExceeded:
        skipped.append("is_perfect")
    try:
        cycle = hamiltonian_cycle(g, solver_budget)
        solved["is_hamiltonian"] = cycle is not None
        solved["hamiltonian_cycle"] = cycle
    except BudgetExceeded:
        skipped.append("is_hamiltonian")
    return inv._replace(**solved, skipped=tuple(skipped))


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
    for name, value in zip(inv._fields, inv):
        if name in _WITNESS_KEYS:
            if value is not None:
                witnesses[_WITNESS_KEYS[name]] = list(value)
        elif name != "skipped":
            obj[name] = list(value) if isinstance(value, tuple) else value
    if witnesses:
        obj["witnesses"] = witnesses
    if inv.skipped:
        obj["skipped"] = list(inv.skipped)
    return obj
