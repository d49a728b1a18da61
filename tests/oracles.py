"""Independent brute-force oracles used to validate the exact solvers and constructions."""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from typing import NamedTuple

from nspg.groups import FiniteGroup
from nspg.power_graphs import NSBPowerGraph, SimpleGraph
from nspg.subgroups import MAX_NORMAL_SUBGROUPS


def phi_by_gcd(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


# --- graph helpers ---------------------------------------------------------


def random_graph(rng, n: int, p: float) -> SimpleGraph:
    edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    return SimpleGraph([str(i) for i in range(n)], edges)


def plant_universal(rng, g: SimpleGraph, count: int) -> SimpleGraph:
    """g with count vertices added that are adjacent to every other vertex; all
    vertices are shuffled, so the planted ones land anywhere."""
    n = g.vertex_count + count
    place = rng.sample(range(n), n)
    old, planted = place[: g.vertex_count], place[g.vertex_count :]
    edges = [(old[u], old[v]) for u, v in g.edges()]
    edges += [(p, w) for p in planted for w in range(n) if w != p]
    return SimpleGraph([str(i) for i in range(n)], edges)


def induced_subgraph(g: SimpleGraph, keep: list[int]) -> SimpleGraph:
    """The subgraph induced on keep, rebuilt from g's edge list: vertex i is g's keep[i]."""
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges() if u in index and v in index]
    return SimpleGraph([g.vertex_labels[v] for v in keep], edges)


def universal_vertices(g: SimpleGraph) -> set[int]:
    """The vertices of degree n - 1."""
    return {v for v in range(g.vertex_count) if g.degree(v) == g.vertex_count - 1}


def _connected_on(g: SimpleGraph, keep: set[int]) -> bool:
    if not keep:
        return True
    start = min(keep)
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if v in keep and v not in seen:
                seen.add(v)
                queue.append(v)
    return seen == keep


# --- brute-force invariants ------------------------------------------------


def brute_clique_number(g: SimpleGraph) -> int:
    """Scan every vertex subset."""
    n = g.vertex_count
    best = 0
    for mask in range(1, 1 << n):
        verts = [v for v in range(n) if (mask >> v) & 1]
        if len(verts) <= best:
            continue
        if all(g.has_edge(u, v) for u, v in itertools.combinations(verts, 2)):
            best = len(verts)
    return best


def brute_chromatic_number(g: SimpleGraph) -> int:
    """Enumerate colorings as restricted-growth strings (all partitions, pruned)."""
    n = g.vertex_count
    best = n
    colors = [0] * n

    def rec(v: int, kmax: int) -> None:
        nonlocal best
        if kmax >= best:
            return
        if v == n:
            best = kmax
            return
        for c in range(min(kmax + 1, best)):
            if all(colors[u] != c for u in range(v) if g.has_edge(u, v)):
                colors[v] = c
                rec(v + 1, max(kmax, c + 1))

    rec(0, 0)
    return best


def _set_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def rescanning_k_colorable(rows: tuple[int, ...], k: int, clique: tuple[int, ...]) -> list[int] | None:
    """A frozen copy of the library's k-colouring search as it was before it kept its
    bookkeeping between steps: each step rescans every uncoloured vertex for the
    maximum (saturation, degree, -v) and updates every neighbour's colour set.
    The library's search must give the same answer and the same colouring."""
    colors = [-1] * len(rows)
    sat = [0] * len(rows)
    full = (1 << k) - 1
    for c, v in enumerate(clique):
        colors[v] = c
        for w in _set_bits(rows[v]):
            sat[w] |= 1 << c

    def pick() -> int:
        return max(
            (v for v in range(len(rows)) if colors[v] == -1),
            key=lambda v: (sat[v].bit_count(), rows[v].bit_count(), -v),
        )

    def solve(remaining: int) -> bool:
        if remaining == 0:
            return True
        v = pick()
        for c in _set_bits(full & ~sat[v]):
            colors[v] = c
            touched = []
            ok = True
            for w in _set_bits(rows[v]):
                if colors[w] == -1 and not (sat[w] >> c) & 1:
                    sat[w] |= 1 << c
                    touched.append(w)
                    if sat[w] == full:
                        ok = False
            if ok and solve(remaining - 1):
                return True
            colors[v] = -1
            for w in touched:
                sat[w] &= ~(1 << c)
        return False

    if solve(len(rows) - len(clique)):
        return colors
    return None


def brute_vertex_connectivity(g: SimpleGraph) -> int:
    """Try every removal set by increasing size; complete graphs give n - 1."""
    n = g.vertex_count
    if n == 1:
        return 0
    everything = set(range(n))
    for k in range(0, n - 1):
        for removed in itertools.combinations(range(n), k):
            keep = everything - set(removed)
            if len(keep) >= 2 and not _connected_on(g, keep):
                return k
    return n - 1


def brute_hamiltonian_exists(g: SimpleGraph) -> bool:
    """Held-Karp over vertex subsets, O(2^n n^2).

    ends[S] is the mask of vertices v such that some path from vertex 0 visits
    exactly the vertex set S and stops at v. A Hamiltonian cycle exists iff a
    path over all vertices stops at a neighbour of vertex 0.
    """
    n = g.vertex_count
    if n < 3:
        return False
    adj = [sum(1 << v for v in range(n) if g.has_edge(u, v)) for u in range(n)]
    ends = [0] * (1 << n)
    ends[1] = 1
    for visited in range(1, 1 << n, 2):  # only sets that contain vertex 0
        for v in range(n):
            if ends[visited] >> v & 1:
                fresh = adj[v] & ~visited
                while fresh:
                    w = fresh & -fresh
                    ends[visited | w] |= w
                    fresh ^= w
    return ends[(1 << n) - 1] & adj[0] != 0


def brute_hamiltonian_by_permutations(g: SimpleGraph) -> bool:
    """Scan all permutations with a fixed start vertex."""
    n = g.vertex_count
    if n < 3:
        return False
    for perm in itertools.permutations(range(1, n)):
        cycle = (0,) + perm
        if all(g.has_edge(cycle[i], cycle[(i + 1) % n]) for i in range(n)):
            return True
    return False


def _reach_on(rows: tuple[int, ...], mask: int, start: int) -> int:
    """The vertices reached from start through mask alone, start included."""
    seen = frontier = 1 << start
    while frontier:
        step = 0
        for u in _set_bits(frontier):
            step |= rows[u]
        frontier = step & mask & ~seen
        seen |= frontier
    return seen


def prefix_tough_cut(rows: tuple[int, ...]) -> int:
    """A frozen copy of the library's toughness cut as it was when it sorted the
    vertices by (-degree, index): it tries each prefix of that order that ends
    where the degree drops and leaves at least 3 vertices, and returns the first
    whose removal leaves more components than it has vertices (0 if none does).
    The library's degree thresholds must give the same mask."""
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
            rest &= ~_reach_on(rows, rest, (rest & -rest).bit_length() - 1)
            parts += 1
        if parts > size:
            return cut
    return 0


def neighbour_list_hamiltonian_cycle(rows: tuple[int, ...]) -> tuple[int, ...] | None:
    """A frozen copy of the library's Hamiltonian cycle search as it was when it
    kept one neighbour list per vertex, sorted by (degree, index), and skipped the
    visited ones: the complete-graph shortcut, the vertex-0 degree guard, the
    prefix toughness cut, then backtracking from vertex 0 that prunes a node whose
    unvisited vertices (with the path's ends) are disconnected or hold a vertex of
    fewer than two usable neighbours. The library must find the same cycle."""
    n = len(rows)
    if n < 3:
        return None
    if sum(map(int.bit_count, rows)) == n * (n - 1):
        return tuple(range(n))
    if rows[0].bit_count() < 2 or prefix_tough_cut(rows):
        return None
    full = (1 << n) - 1
    nbr_order = [sorted(_set_bits(rows[u]), key=lambda v: (rows[v].bit_count(), v)) for u in range(n)]
    path = [0]

    def solve(u: int, visited: int) -> bool:
        if len(path) == n:
            return rows[u] & 1 == 1
        remaining = full & ~visited | 1 << u
        if _reach_on(rows, remaining, u) != remaining:
            return False
        usable = remaining | 1
        if any((rows[w] & usable).bit_count() < 2 for w in _set_bits(full & ~visited)):
            return False
        for v in nbr_order[u]:
            if not visited >> v & 1:
                path.append(v)
                if solve(v, visited | 1 << v):
                    return True
                path.pop()
        return False

    return tuple(path) if solve(0, 1) else None


def brute_girth(g: SimpleGraph) -> int | None:
    """Min over edges (u, v) of 1 + shortest u-v path avoiding that edge."""
    best = None
    for u, v in g.edges():
        dist = {u: 0}
        queue = deque([u])
        while queue:
            a = queue.popleft()
            for b in g.neighbors(a):
                if a == u and b == v:
                    continue
                if b not in dist:
                    dist[b] = dist[a] + 1
                    queue.append(b)
        if v in dist:
            length = dist[v] + 1
            if best is None or length < best:
                best = length
    return best


def brute_has_odd_hole(g: SimpleGraph) -> bool:
    """Check every odd vertex subset of size >= 5 for inducing a cycle."""
    n = g.vertex_count
    for size in range(5, n + 1, 2):
        for verts in itertools.combinations(range(n), size):
            degrees = [sum(1 for w in verts if w != v and g.has_edge(v, w)) for v in verts]
            if all(d == 2 for d in degrees) and _connected_on(g, set(verts)):
                return True
    return False


def brute_is_perfect(g: SimpleGraph) -> bool:
    return not brute_has_odd_hole(g) and not brute_has_odd_hole(g.complement())


# --- brute-force planarity via Kuratowski subdivisions (n <= 8) -------------


def _interior_sets(adj: list[set[int]], a: int, b: int, available: frozenset[int]):
    """Interior-vertex sets of simple a..b paths using only `available` inside."""
    seen = set()
    if b in adj[a]:
        seen.add(frozenset())
        yield frozenset()

    def rec(u: int, used: frozenset[int]):
        for w in sorted(adj[u] & available - used):
            nxt = used | {w}
            if b in adj[w] and nxt not in seen:
                seen.add(nxt)
                yield nxt
            yield from rec(w, nxt)

    yield from rec(a, frozenset())


def _assign_paths(adj: list[set[int]], pairs: list[tuple[int, int]], spare: frozenset[int]) -> bool:
    def rec(i: int, available: frozenset[int]) -> bool:
        if i == len(pairs):
            return True
        a, b = pairs[i]
        for interior in _interior_sets(adj, a, b, available):
            if rec(i + 1, available - interior):
                return True
        return False

    return rec(0, spare)


def brute_is_planar(g: SimpleGraph) -> bool:
    """Planar iff no K5 and no K3,3 subdivision appears as a subgraph (small n only)."""
    n = g.vertex_count
    if n > 8:
        raise ValueError("subdivision search oracle is limited to 8 vertices")
    # A K3,3 subdivision has at least 9 edges, a K5 one at least 10.
    if g.edge_count < 9:
        return True
    adj = [set(g.neighbors(u)) for u in range(n)]
    # A branch vertex has its branch degree in the subdivision: 4 in K5, 3 in K3,3.
    for branch in itertools.combinations([v for v in range(n) if len(adj[v]) >= 4], 5):
        spare = frozenset(set(range(n)) - set(branch))
        pairs = list(itertools.combinations(branch, 2))
        if _assign_paths(adj, pairs, spare):
            return False
    for branch in itertools.combinations([v for v in range(n) if len(adj[v]) >= 3], 6):
        spare = frozenset(set(range(n)) - set(branch))
        for left in itertools.combinations(branch, 3):
            if branch[0] not in left:
                continue  # fix the smallest branch vertex on one side
            right = tuple(v for v in branch if v not in left)
            pairs = [(a, b) for a in left for b in right]
            if _assign_paths(adj, pairs, spare):
                return False
    return True


# --- graph serialisation ---------------------------------------------------


def graph_to_json_by_dumps(g: SimpleGraph) -> str:
    """The graph JSON wire format as json.dumps(obj, indent=2) writes it, plus a
    newline: the reference for power_graphs.graph_to_json, which writes the same
    bytes row by row. Edges come from has_edge on every pair, not from g.edges()."""
    n = g.vertex_count
    edges = [[u, v] for u in range(n) for v in range(u + 1, n) if g.has_edge(u, v)]
    return json.dumps({"vertices": list(g.vertex_labels), "edges": edges}, indent=2) + "\n"


# --- group-side oracles ------------------------------------------------------


def powers_by_table(table, a: int) -> tuple[int, ...]:
    """a, a**2, ... up to the first power equal to the identity, each a power times a.
    A power that has not reached the identity within len(table) steps fails the caller."""
    out, x = [a], a
    for _ in range(len(table)):
        if not x:
            return tuple(out)
        x = table[x][a]
        out.append(x)
    raise AssertionError(f"the powers of element {a} never reach the identity")


def order_by_iteration(table, a: int) -> int:
    return len(powers_by_table(table, a))


def element_power(G: FiniteGroup, a: int, k: int) -> int:
    """a**k by repeated table lookup; a**0 is the identity."""
    if not 0 <= a < G.order:
        raise ValueError(f"element index {a} out of range for group of order {G.order}")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    k %= order_by_iteration(G.table, a)
    x = 0
    for _ in range(k):
        x = G.table[x][a]
    return x


def generate_by_elements(rows, elements) -> tuple[tuple[int, ...], frozenset[int]]:
    """A frozen copy of the library's generate as it was before it closed over
    cosets: breadth-first right multiplication from the identity, element by
    element; whenever the walk stalls, the smallest element not yet reached
    becomes a new generator, and the walk runs again over everything reached.
    The library must give the same generators and the same span."""
    seen = {0}
    reached = [0]
    generators: list[int] = []
    for a in sorted(elements):
        if a in seen:
            continue
        generators.append(a)
        for x in reached:  # the list grows while it is walked: breadth-first
            row = rows[x]
            for g in generators:
                if row[g] not in seen:
                    seen.add(row[g])
                    reached.append(row[g])
    return tuple(generators), frozenset(reached)


def is_associative_brute(table) -> bool:
    """(a*b)*c == a*(b*c) over every triple."""
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def nsb_adjacent_literal(G, h_elements, x: int, y: int) -> bool:
    """The definition verbatim: xH = y^m H or yH = x^n H for some positive exponent."""

    def coset(a: int) -> frozenset[int]:
        return frozenset(G.table[a][h] for h in h_elements)

    cx, cy = coset(x), coset(y)
    for base, target in ((y, cx), (x, cy)):
        power = base
        for _ in range(G.order):
            if coset(power) == target:
                return True
            power = G.table[power][base]
    return False


def power_graph_brute(G: FiniteGroup) -> SimpleGraph:
    """The power graph by scanning every pair: u in <v> or v in <u>."""
    n = G.order
    powers = [frozenset(powers_by_table(G.table, a)) for a in G.elements()]
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if u in powers[v] or v in powers[u]
    ]
    return SimpleGraph(G.labels, edges)


def coset_partition_by_sets(G: FiniteGroup, h_elements) -> list[int]:
    """Coset index per element: each element's coset aH as a frozenset, the
    distinct sets numbered by their smallest member (so H is coset 0)."""
    keys = [frozenset(G.table[a][h] for h in h_elements) for a in G.elements()]
    index = {key: i for i, key in enumerate(sorted(set(keys), key=min))}
    return [index[key] for key in keys]


def nsb_power_graph_brute(G: FiniteGroup, h_elements) -> NSBPowerGraph:
    """Gamma_H(G) by scanning every vertex pair against each vertex's exponent cosets.

    Cosets are numbered by smallest member, H first, as in nspg; vertices are
    e followed by G \\ H in ascending order.
    """
    members = set(h_elements)
    coset = coset_partition_by_sets(G, members)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    power_cosets = {a: {coset[x] for x in powers_by_table(G.table, a)} for a in vertex_element}
    n = len(vertex_element)
    edges = []
    for i in range(n):
        x = vertex_element[i]
        for j in range(i + 1, n):
            y = vertex_element[j]
            if coset[x] in power_cosets[y] or coset[y] in power_cosets[x]:
                edges.append((i, j))
    labels = tuple(G.labels[a] for a in vertex_element)
    return NSBPowerGraph(
        graph=SimpleGraph(labels, edges),
        vertex_element=vertex_element,
        coset_of=tuple(coset[a] for a in vertex_element),
    )


class CosetChain(NamedTuple):
    """Gamma_H(G) as a comparability graph, read from the group alone.

    cosets[i] is the set of cosets in <aH> for vertex i's element a (vertex 0 is
    e, then G \\ H ascending). classes holds the vertices of equal sets, ordered
    by (set size, smallest vertex). chain is the vertices of the heaviest chain
    of classes under strict inclusion, each class weighing its size, and
    colouring gives each class the block of colours that ends at the weight of
    the heaviest chain ending at it, to its members in vertex order.
    """

    cosets: tuple[frozenset[int], ...]
    classes: tuple[tuple[int, ...], ...]
    chain: tuple[int, ...]
    colouring: tuple[int, ...]


def coset_chain(G: FiniteGroup, h_elements) -> CosetChain:
    """The heaviest chain and the interval colouring of Gamma_H(G), from G's table
    and H's elements alone. Two vertices are adjacent exactly when one set holds
    the other, so the chain is a clique, the colouring is proper, and both have
    the chain's weight: omega = chi (Mirsky, Amer. Math. Monthly 78, 1971)."""
    members = set(h_elements)
    coset = coset_partition_by_sets(G, members)
    vertex_element = (0,) + tuple(a for a in G.elements() if a not in members)
    cosets = tuple(frozenset(coset[x] for x in powers_by_table(G.table, a)) for a in vertex_element)
    by_set: dict[frozenset[int], list[int]] = {}
    for i, key in enumerate(cosets):
        by_set.setdefault(key, []).append(i)
    classes = sorted(by_set.values(), key=lambda c: (len(cosets[c[0]]), c[0]))
    height, below = [], []  # the heaviest chain ending at each class, and its class before
    for k, c in enumerate(classes):
        inside = [j for j in range(k) if cosets[classes[j][0]] < cosets[c[0]]]
        best = max(inside, key=height.__getitem__, default=None)
        height.append(len(c) + (height[best] if best is not None else 0))
        below.append(best)
    colouring = [0] * len(vertex_element)
    for c, top in zip(classes, height):
        for offset, v in enumerate(c):
            colouring[v] = top - len(c) + offset
    chain: list[int] = []
    k = max(range(len(classes)), key=height.__getitem__)
    while k is not None:
        chain += classes[k]
        k = below[k]
    return CosetChain(cosets, tuple(map(tuple, classes)), tuple(sorted(chain)), tuple(colouring))


def is_normal_brute(G, elems) -> bool:
    """g*h*g^-1 lies in the set for every g in G and h in it."""
    members = set(elems)
    return all(G.table[G.table[g][h]][G.inv(g)] in members for g in G.elements() for h in members)


# --- brute-force subgroup enumeration ------------------------------------------


def closure(G: FiniteGroup, seed: set[int]) -> frozenset[int]:
    """Smallest multiplication-closed superset of seed containing the identity."""
    table = G.table
    elems = {0} | set(seed)
    frontier = list(elems)
    while frontier:
        fresh: list[int] = []
        members = list(elems)
        for a in frontier:
            for b in members:
                for c in (table[a][b], table[b][a]):
                    if c not in elems:
                        elems.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(elems)


def all_subgroups(G: FiniteGroup) -> list[frozenset[int]]:
    """Every subgroup of G: cyclic subgroups closed under pairwise joins to a fixpoint."""
    subs: set[frozenset[int]] = {frozenset(powers_by_table(G.table, a)) for a in G.elements()}
    while True:
        current = sorted(subs, key=lambda s: (len(s), sorted(s)))
        added = False
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                a, b = current[i], current[j]
                if a <= b or b <= a:
                    continue
                joined = closure(G, set(a | b))
                if joined not in subs:
                    subs.add(joined)
                    added = True
        if not added:
            return sorted(subs, key=lambda s: (len(s), sorted(s)))


def all_normal_subgroups_by_sets(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Element tuples of every normal subgroup, in all_normal_subgroups' order.

    An independent breadth-first walk on Python sets: one closure per conjugacy
    class, spanned by generate_by_elements rather than the library's generate,
    and every subgroup found joined with every closure it lacks, each join
    rebuilt coset by coset with set.update and kept if the seen set lacks it. It
    has no canonicity test, so it does not share the library's Close-by-One
    pruning. Raises ValueError past MAX_NORMAL_SUBGROUPS.
    """
    table = G.table
    closures: dict[frozenset[int], int] = {}  # normal closure -> an element it is the closure of
    classified = set()
    for g in G.elements():
        if g not in classified:
            conj = [g]
            classified.add(g)
            for x in conj:  # the list grows while it is walked
                for s in G.generators:
                    y = table[table[s][x]][G.inv(s)]
                    if y not in classified:
                        classified.add(y)
                        conj.append(y)
            closures.setdefault(generate_by_elements(table, conj)[1], g)
    found = [frozenset((0,))]
    seen = set(found)
    for N in found:  # the list grows while it is walked: breadth-first
        for P, g in closures.items():
            if g in N:
                continue
            joined = set(N)
            for p in P:
                if p not in joined:
                    joined.update(table[n][p] for n in N)  # the coset Np
            joined = frozenset(joined)
            if joined not in seen:
                if len(found) == MAX_NORMAL_SUBGROUPS:
                    raise ValueError(
                        f"{G.name} has more than {MAX_NORMAL_SUBGROUPS} normal subgroups; "
                        "enumeration refused"
                    )
                seen.add(joined)
                found.append(joined)
    found.sort(key=lambda s: (len(s), sorted(s)))
    return [tuple(sorted(s)) for s in found]


# --- per-entry group-table builders ------------------------------------------


def build_elementary_abelian_brute(p: int, k: int):
    """E(p,k) table and labels, decoding and re-encoding base-p digits for every entry."""
    size = p**k

    def digits(x: int) -> tuple[int, ...]:
        out = []
        for _ in range(k):
            x, r = divmod(x, p)
            out.append(r)
        return tuple(reversed(out))

    def undigits(d: tuple[int, ...]) -> int:
        x = 0
        for v in d:
            x = x * p + v
        return x

    def mul(a: int, b: int) -> int:
        return undigits(tuple((u + v) % p for u, v in zip(digits(a), digits(b))))

    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    labels = tuple(("," if p > 10 else "").join(str(v) for v in digits(x)) for x in range(size))
    return table, labels


def build_product_brute(children):
    """Direct product table and labels, decoding and re-encoding mixed-radix indices per entry."""
    sizes = [len(t) for t, _ in children]
    total = math.prod(sizes)

    def decode(x: int) -> tuple[int, ...]:
        out = []
        for s in reversed(sizes):
            x, r = divmod(x, s)
            out.append(r)
        return tuple(reversed(out))

    def encode(parts: tuple[int, ...]) -> int:
        x = 0
        for s, v in zip(sizes, parts):
            x = x * s + v
        return x

    def mul(a: int, b: int) -> int:
        pa, pb = decode(a), decode(b)
        return encode(tuple(children[i][0][pa[i]][pb[i]] for i in range(len(sizes))))

    table = tuple(tuple(mul(a, b) for b in range(total)) for a in range(total))
    labels = tuple(
        "(" + ",".join(children[i][1][part] for i, part in enumerate(decode(x))) + ")"
        for x in range(total)
    )
    return table, labels


def cyclic_table_brute(n: int):
    """Z_n table entry by entry: (a + b) mod n."""
    return tuple(tuple((a + b) % n for b in range(n)) for a in range(n))


def build_dihedral_brute(n: int):
    """D_n table and labels entry by entry; index f*n + j encodes s^f r^j."""
    size = 2 * n

    def mul(a: int, b: int) -> int:
        f1, j1 = divmod(a, n)
        f2, j2 = divmod(b, n)
        j = (j1 * (-1) ** f2 + j2) % n
        return ((f1 + f2) % 2) * n + j

    table = tuple(tuple(mul(a, b) for b in range(size)) for a in range(size))
    labels = tuple(f"r{j}" for j in range(n)) + tuple(f"s{j}" for j in range(n))
    return table, labels


def build_symmetric_brute(n: int):
    """S_n table and labels entry by entry, composing each pair of permutations."""
    perms = list(itertools.permutations(range(n)))  # lexicographic, identity first
    index = {p: i for i, p in enumerate(perms)}

    def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(p[q[i]] for i in range(n))

    table = tuple(tuple(index[compose(p, q)] for q in perms) for p in perms)
    labels = tuple("".join(str(v) for v in p) for p in perms)
    return table, labels


def build_quaternion_brute():
    """Q8 table and labels entry by entry from the unit table; index 2*unit + (0 for +, 1 for -)."""
    unit_mul = {
        (0, 0): (0, 1), (0, 1): (1, 1), (0, 2): (2, 1), (0, 3): (3, 1),
        (1, 0): (1, 1), (1, 1): (0, -1), (1, 2): (3, 1), (1, 3): (2, -1),
        (2, 0): (2, 1), (2, 1): (3, -1), (2, 2): (0, -1), (2, 3): (1, 1),
        (3, 0): (3, 1), (3, 1): (2, 1), (3, 2): (1, -1), (3, 3): (0, -1),
    }

    def mul(a: int, b: int) -> int:
        ua, sa = divmod(a, 2)
        ub, sb = divmod(b, 2)
        u, s = unit_mul[(ua, ub)]
        sign = (-1) ** (sa + sb) * s
        return 2 * u + (0 if sign == 1 else 1)

    table = tuple(tuple(mul(a, b) for b in range(8)) for a in range(8))
    return table, ("1", "-1", "i", "-i", "j", "-j", "k", "-k")
