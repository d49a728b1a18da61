"""Independent brute-force oracles used to validate the exact solvers and constructions."""

from __future__ import annotations

import itertools
import math
from collections import deque

from nspg.groups import FiniteGroup, generate
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


# --- group-side oracles ------------------------------------------------------


def order_by_iteration(table, a: int) -> int:
    x = a
    k = 1
    while x != 0:
        x = table[x][a]
        k += 1
    return k


def element_power(G: FiniteGroup, a: int, k: int) -> int:
    """a**k by repeated table lookup; a**0 is the identity."""
    if not 0 <= a < G.order:
        raise ValueError(f"element index {a} out of range for group of order {G.order}")
    if k < 0:
        raise ValueError("exponent must be non-negative")
    k %= G.element_order(a)
    x = 0
    for _ in range(k):
        x = G.table[x][a]
    return x


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
    powers = [G.cyclic_subgroup(a) for a in G.elements()]
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
    return NSBPowerGraph(
        graph=SimpleGraph(labels, edges),
        vertex_element=vertex_element,
        coset_of=tuple(coset[a] for a in vertex_element),
    )


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
    subs: set[frozenset[int]] = {G.cyclic_subgroup(a) for a in G.elements()}
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

    The same walk as nspg.subgroups.all_normal_subgroups on Python sets: one
    closure per conjugacy class, each join rebuilt coset by coset with
    set.update. Raises ValueError past MAX_NORMAL_SUBGROUPS.
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
            closures.setdefault(generate(table, conj)[1], g)
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
    labels = tuple("".join(str(v) for v in digits(x)) for x in range(size))
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
