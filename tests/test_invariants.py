import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nspg.invariants as inv
from nspg.groups import make_group, parse_group_spec
from nspg.power_graphs import SimpleGraph, nsb_power_graph, power_graph
from nspg.subgroups import all_normal_subgroups, generated_subgroup, quotient
from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_girth,
    brute_hamiltonian_by_permutations,
    brute_hamiltonian_exists,
    brute_has_odd_hole,
    brute_is_perfect,
    brute_is_planar,
    brute_vertex_connectivity,
    coset_chain,
    induced_subgraph,
    neighbour_list_hamiltonian_cycle,
    plant_universal,
    power_graph_brute,
    prefix_tough_cut,
    random_graph,
    rescanning_k_colorable,
    universal_vertices,
)
from test_power_graphs import LARGE_PAIRS


def grp(text):
    return make_group(parse_group_spec(text))


def labels(n):
    return [str(i) for i in range(n)]


def complete_graph(n):
    return SimpleGraph(labels(n), itertools.combinations(range(n), 2))


def cycle_graph(n):
    return SimpleGraph(labels(n), [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return SimpleGraph(labels(n), [(i, i + 1) for i in range(n - 1)])


def k33():
    return SimpleGraph(labels(6), [(a, b) for a in range(3) for b in range(3, 6)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return SimpleGraph(labels(10), outer + inner + spokes)


def subdivide(g, edge):
    """Replace one edge by a path of length two through a fresh vertex."""
    u, v = edge
    n = g.vertex_count
    edges = [e for e in g.edges() if e != tuple(sorted(edge))]
    edges += [(u, n), (v, n)]
    return SimpleGraph(labels(n + 1), edges)


def gamma_z6():
    return power_graph(grp("Z6"))


def nsb_graph(text, gens):
    G = grp(text)
    return nsb_power_graph(G, generated_subgroup(G, gens)).graph


# --- basic invariants --------------------------------------------------------


def test_basic_invariants_k3():
    b = inv.basic_invariants(complete_graph(3))
    assert b.edge_count == 3
    assert b.is_connected and b.is_eulerian and not b.is_bipartite
    assert b.is_complete and b.is_regular and not b.is_tree


def test_basic_invariants_path():
    b = inv.basic_invariants(path_graph(3))
    assert b.edge_count == 2
    assert b.is_tree and b.is_bipartite and not b.is_eulerian


def test_basic_invariants_gamma_z6():
    b = inv.basic_invariants(gamma_z6())
    assert b.edge_count == 13
    assert b.is_connected and not b.is_complete


def test_single_vertex_is_eulerian_and_connected():
    g = SimpleGraph(["v"], [])
    assert inv.is_connected(g)
    assert inv.is_eulerian(g)


def test_empty_graph_is_refused_before_any_invariant():
    # A 0-vertex graph once reached rows[0] in is_connected and raised IndexError.
    with pytest.raises(ValueError, match="at least one vertex"):
        inv.basic_invariants(SimpleGraph([], []))


# --- girth -------------------------------------------------------------------


def test_girth_anchors():
    assert inv.girth(complete_graph(3)) == 3
    assert inv.girth(path_graph(5)) is None
    assert inv.girth(cycle_graph(5)) == 5
    assert inv.girth(cycle_graph(6)) == 6
    assert inv.girth(petersen()) == 5
    assert inv.girth(nsb_graph("Z12", [6])) == 3


def test_girth_matches_oracle_on_random_graphs():
    rng = random.Random(7)
    for _ in range(120):
        g = random_graph(rng, rng.randint(2, 9), rng.choice([0.15, 0.3, 0.6]))
        assert inv.girth(g) == brute_girth(g)


def random_bipartite_graph(rng, n, p):
    left = set(rng.sample(range(n), rng.randint(1, n - 1)))
    edges = [
        (u, v)
        for u, v in itertools.combinations(range(n), 2)
        if (u in left) != (v in left) and rng.random() < p
    ]
    return SimpleGraph(labels(n), edges)


def random_tree(rng, n):
    return SimpleGraph(labels(n), [(v, rng.randrange(v)) for v in range(1, n)])


def disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for u, v in g.edges()]
        offset += g.vertex_count
    return SimpleGraph(labels(offset), edges)


def test_girth_matches_networkx_on_random_graphs():
    import networkx as nx  # a test oracle only, never a runtime dependency

    rng = random.Random(20261018)
    graphs = [cycle_graph(n) for n in (10, 17, 25, 40)]
    for _ in range(25):
        n = rng.randint(10, 40)
        graphs.append(random_graph(rng, n, rng.choice([0.04, 0.08, 0.15, 0.4])))
        graphs.append(random_bipartite_graph(rng, n, rng.choice([0.05, 0.1, 0.3])))
        graphs.append(random_tree(rng, n))
        # Forests, and trees beside cycles: skipping a tree component must not skip a cycle.
        parts = [random_tree(rng, rng.randint(1, 12)) for _ in range(rng.randint(2, 4))]
        graphs.append(disjoint_union(*parts))
        parts += [cycle_graph(rng.randint(3, 9)) for _ in range(rng.randint(1, 2))]
        rng.shuffle(parts)
        graphs.append(disjoint_union(*parts))
    seen, outcomes = set(), set()
    for g in graphs:
        reference = nx.Graph()
        reference.add_nodes_from(range(g.vertex_count))
        reference.add_edges_from(g.edges())
        want = nx.girth(reference)
        got = inv.girth(g)
        assert got == (None if want == float("inf") else want)
        seen.add(got if got in (None, 3, 4) else "longer")
        bipartite = inv.is_bipartite(g)
        assert bipartite == nx.is_bipartite(reference)
        outcomes.add(bipartite)
    # Both the triangle exit and the full search ran, and some graphs had no cycle.
    assert seen == {None, 3, 4, "longer"}
    assert outcomes == {True, False}


# --- clique ------------------------------------------------------------------


def test_clique_anchors():
    assert inv.clique_number(complete_graph(5))[0] == 5
    size, witness = inv.clique_number(gamma_z6())
    assert size == 5
    assert set(witness) == {0, 1, 2, 4, 5}
    assert inv.clique_number(nsb_graph("Z12", [6]))[0] == 9


def test_clique_witness_is_a_clique():
    for g in [gamma_z6(), petersen(), nsb_graph("Z12", [4])]:
        size, witness = inv.clique_number(g)
        assert len(witness) == size
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(witness, 2))


# --- chromatic ---------------------------------------------------------------


def test_chromatic_anchors():
    assert inv.chromatic_number(complete_graph(5))[0] == 5
    assert inv.chromatic_number(k33())[0] == 2
    assert inv.chromatic_number(cycle_graph(5))[0] == 3
    assert inv.chromatic_number(nsb_graph("Z12", [6]))[0] == 9
    assert inv.chromatic_number(SimpleGraph(labels(4), [])) == (1, (0, 0, 0, 0))


def grotzsch():
    """Mycielski's graph of C5: triangle-free (omega = 2) with chromatic number 4."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, (i + 1) % 5) for i in range(5)] + [(5 + i, (i - 1) % 5) for i in range(5)]
    edges += [(10, 5 + i) for i in range(5)]
    return SimpleGraph(labels(11), edges)


def test_chromatic_refutes_levels_above_the_clique_number():
    g = grotzsch()
    omega, clique = inv.clique_number(g)
    assert omega == 2
    # The search must refute k = 2 and k = 3 before it colours with 4.
    assert inv._k_colorable(g.rows, 2, clique) is None
    assert inv._k_colorable(g.rows, 3, clique) is None
    k, coloring = inv.chromatic_number(g)
    assert k == 4 == brute_chromatic_number(g)
    assert len(set(coloring)) == 4
    assert all(coloring[u] != coloring[v] for u, v in g.edges())


def assert_same_colourings_as_the_rescanning_search(g, budget=inv.DEFAULT_SOLVER_BUDGET):
    """Every level from omega to chi gives the frozen copy's answer, so chi and
    the colouring do too; returns chi - omega."""
    _, clique = inv.clique_number(g, budget)
    k = len(clique)
    while True:
        colors = inv._k_colorable(g.rows, k, clique)
        assert colors == rescanning_k_colorable(g.rows, k, clique), (g.edges(), k)
        if colors is not None:
            break
        k += 1
    assert inv.chromatic_number(g, budget) == (k, tuple(colors))
    return k - len(clique)


def test_colourings_equal_the_rescanning_search_on_the_catalog(catalog_pairs):
    graphs = {}
    for G, H in catalog_pairs:
        g = nsb_power_graph(G, H).graph
        graphs[g.rows] = g
    assert len(graphs) == 116
    for g in graphs.values():
        assert_same_colourings_as_the_rescanning_search(g)


@pytest.mark.parametrize("text", ["Q8xQ8", "E(2,5)", "S5", "D64"])
def test_colourings_equal_the_rescanning_search_on_large_power_graphs(text):
    g = power_graph(grp(text))
    assert g.vertex_count in (32, 64, 120, 128)
    assert_same_colourings_as_the_rescanning_search(g, budget=g.vertex_count)


def test_colourings_equal_the_rescanning_search_on_complete_graphs_and_odd_cycles():
    for n in range(1, 41):
        assert_same_colourings_as_the_rescanning_search(complete_graph(n), budget=n)
    # chi exceeds omega on each: the search refutes omega (and 3 on Groetzsch's graph).
    gaps = [assert_same_colourings_as_the_rescanning_search(g) for g in (cycle_graph(5), cycle_graph(7), grotzsch())]
    assert gaps == [1, 1, 2]


def test_colourings_equal_the_rescanning_search_on_random_graphs():
    rng = random.Random(4701)
    gaps = [
        assert_same_colourings_as_the_rescanning_search(
            random_graph(rng, rng.randint(1, 14), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        )
        for _ in range(3000)
    ]
    assert sum(gap > 0 for gap in gaps) >= 100  # graphs on which the search backtracks past omega


def test_colouring_a_complete_graph_touches_no_neighbour(monkeypatch):
    # The clique is every vertex, so precolouring it leaves no uncoloured vertex to update.
    yielded = 0
    real_bits = inv._bits

    def counting(mask):
        nonlocal yielded
        for v in real_bits(mask):
            yielded += 1
            yield v

    monkeypatch.setattr(inv, "_bits", counting)
    for n in (8, 64, 200):
        yielded = 0
        assert inv.chromatic_number(complete_graph(n), budget=n) == (n, tuple(range(n)))
        assert yielded <= 2 * n  # the clique witness's n bits; n * n before


def test_chromatic_witness_is_proper():
    for g in [gamma_z6(), petersen(), cycle_graph(7), nsb_graph("Z12", [6])]:
        k, coloring = inv.chromatic_number(g)
        assert len(set(coloring)) == k
        for u, v in g.edges():
            assert coloring[u] != coloring[v]


def test_chromatic_number_at_scale_matches_networkx_clique_number(catalog_pairs):
    # Power graphs and Gamma_H(G) are comparability graphs, so chi = omega;
    # networkx's omega checks chi past the reach of the brute-force oracles.
    import networkx as nx  # a test oracle only, never a runtime dependency

    graphs = {}
    for G, H in catalog_pairs:
        g = nsb_power_graph(G, H).graph
        graphs[g.rows] = g
    for text in ("Q8xQ8", "E(2,5)"):
        G = grp(text)
        g = nsb_power_graph(G, generated_subgroup(G, [0])).graph
        assert g.vertex_count == G.order
        graphs[g.rows] = g
    assert max(g.vertex_count for g in graphs.values()) == 64
    for g in graphs.values():
        k, coloring = inv.chromatic_number(g)
        assert len(coloring) == g.vertex_count and set(coloring) == set(range(k))
        assert all(coloring[u] != coloring[v] for u, v in g.edges())
        reference = nx.Graph()
        reference.add_nodes_from(range(g.vertex_count))
        reference.add_edges_from(g.edges())
        assert k == nx.max_weight_clique(reference, weight=None)[1]


# --- vertex connectivity -----------------------------------------------------


def test_kappa_anchors():
    for n in range(1, 6):
        assert inv.vertex_connectivity(complete_graph(n))[0] == n - 1
    assert inv.vertex_connectivity(gamma_z6())[0] == 3
    assert inv.vertex_connectivity(path_graph(5))[0] == 1
    assert inv.vertex_connectivity(petersen())[0] == 3
    assert inv.vertex_connectivity(nsb_graph("Z12", [6]))[0] == 5
    two_parts = SimpleGraph(labels(4), [(0, 1), (2, 3)])
    assert inv.vertex_connectivity(two_parts)[0] == 0
    # Two universal vertices on Petersen: flows on G - U, which is connected.
    assert inv.vertex_connectivity(plant_universal(random.Random(3), petersen(), 2))[0] == 2 + 3
    # G - U disconnected: U itself is the cut.
    z12 = nsb_graph("Z12", [6])
    assert inv.vertex_connectivity(z12) == (5, tuple(sorted(universal_vertices(z12))))


def assert_cut_witness(g, k, cut):
    """The witness has k vertices and its removal disconnects g."""
    assert cut is not None and len(cut) == k
    keep = [v for v in range(g.vertex_count) if v not in set(cut)]
    assert not inv.is_connected(induced_subgraph(g, keep))


def test_kappa_cut_witness_disconnects():
    for g in [gamma_z6(), petersen(), path_graph(6), nsb_graph("Z12", [6])]:
        assert_cut_witness(g, *inv.vertex_connectivity(g))


def test_kappa_finds_a_cut_through_the_minimum_degree_vertex():
    # Two K5s joined only through vertex 0, the first vertex of minimum degree (4).
    # Flows from 0 to its non-neighbours all give 2; only its neighbour pairs see {0}.
    edges = [(0, 1), (0, 2), (0, 6), (0, 7)]
    edges += itertools.combinations(range(1, 6), 2)
    edges += itertools.combinations(range(6, 11), 2)
    g = SimpleGraph(labels(11), edges)
    assert min(range(11), key=g.degree) == 0 and g.degree(0) == 4
    assert inv.vertex_connectivity(g) == (1, (0,))


def test_kappa_flow_reroutes_back_through_a_used_vertex():
    # The first search takes 0-1-3-5-9. The second enters 5 from 4, so it must step
    # back through 3 (undoing its internal arc) to 1 and leave by 6-7-8.
    edges = [(0, 1), (1, 3), (3, 5), (5, 9), (0, 2), (2, 4), (4, 5)]
    edges += [(1, 6), (6, 7), (7, 8), (8, 9)]
    g = SimpleGraph(labels(10), edges)
    assert inv._max_vertex_disjoint_paths(g.rows, 0, 9) == (2, [1, 2])


def test_kappa_matches_networkx_on_random_graphs():
    import networkx as nx  # a test oracle only, never a runtime dependency

    rng = random.Random(20261017)
    for _ in range(60):
        n = rng.randint(11, 40)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.5, 0.7, 0.9]))
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(g.edges())
        k, cut = inv.vertex_connectivity(g)
        assert k == nx.node_connectivity(reference)
        if not inv.is_complete(g):
            assert_cut_witness(g, k, cut)


def test_kappa_on_a_random_mask_matches_networkx_on_the_induced_subgraph():
    import networkx as nx  # a test oracle only, never a runtime dependency

    rng = random.Random(20261020)
    checked = 0
    for _ in range(400):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7, 0.9]))
        mask = rng.randrange(1, 1 << n)
        kept = [v for v in range(n) if mask >> v & 1]
        reference = nx.Graph(g.edges())
        reference.add_nodes_from(range(n))
        reference = reference.subgraph(kept)
        complete = reference.number_of_edges() == len(kept) * (len(kept) - 1) // 2
        if complete or not nx.is_connected(reference):
            continue
        k, cut = inv._kappa(g.rows, mask)
        assert k == nx.node_connectivity(reference) == len(cut)
        assert set(cut) <= set(kept)
        assert not nx.is_connected(reference.subgraph(set(kept) - set(cut)))
        checked += 1
    assert checked >= 100


@pytest.mark.parametrize("text, gens, n", [("S5", [0], 120), ("D64", [2], 97)])
def test_kappa_on_large_nsb_graphs(text, gens, n):
    g = nsb_graph(text, gens)
    assert g.vertex_count == n
    k, cut = inv.vertex_connectivity(g)
    assert k == 1
    assert_cut_witness(g, k, cut)


# --- planarity ---------------------------------------------------------------


def test_planarity_fixtures():
    assert inv.is_planar(complete_graph(4))
    assert not inv.is_planar(complete_graph(5))
    assert not inv.is_planar(k33())
    assert not inv.is_planar(complete_graph(6))
    assert not inv.is_planar(petersen())
    assert inv.is_planar(cycle_graph(8))
    assert inv.is_planar(path_graph(6))
    # octahedron: planar and 4-regular
    octa = SimpleGraph(
        labels(6),
        [
            (u, v)
            for u, v in itertools.combinations(range(6), 2)
            if (u, v) not in [(0, 1), (2, 3), (4, 5)]
        ],
    )
    assert inv.is_planar(octa)
    assert inv.is_planar(nsb_graph("D4", [2]))
    assert not inv.is_planar(nsb_graph("Z8", [2]))  # a K5
    assert inv.is_planar(nsb_graph("Z6", [2]))  # a K4


def test_planarity_on_larger_structured_graphs():
    def grid(r, c):
        at = lambda i, j: i * c + j
        edges = []
        for i in range(r):
            for j in range(c):
                if j + 1 < c:
                    edges.append((at(i, j), at(i, j + 1)))
                if i + 1 < r:
                    edges.append((at(i, j), at(i + 1, j)))
        return SimpleGraph(labels(r * c), edges)

    def generalized_petersen(n, k):
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [(n + i, n + (i + k) % n) for i in range(n)]
        edges += [(i, n + i) for i in range(n)]
        return SimpleGraph(labels(2 * n), edges)

    assert inv.is_planar(grid(6, 6))
    assert inv.is_planar(generalized_petersen(10, 2))  # the dodecahedral graph
    assert not inv.is_planar(generalized_petersen(8, 3))
    # stacked triangulation: maximal planar with exactly 3n - 6 edges, so the
    # density filter cannot decide it and the embedding has to run in full
    edges = [(0, 1), (0, 2), (1, 2)]
    for v in range(3, 20):
        edges += [(v, v - 1), (v, v - 2), (v, 0)]
    g = SimpleGraph(labels(20), edges)
    assert g.edge_count == 3 * 20 - 6
    assert inv.is_planar(g)
    extra = SimpleGraph(labels(20), edges + [(2, 5)])
    assert not inv.is_planar(extra)


def path_distance(g, start, through, targets):
    """The fewest edges from start to targets, inner vertices in through and the
    first step not into targets, by a plain queue search; None if no such path."""
    dist = {start: 0}
    queue = collections.deque([start])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if u != start and v in targets:
                return dist[u] + 1
            if v in through and v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return None


def test_first_cycle_of_the_embedding_is_simple():
    for g in [complete_graph(5), k33(), petersen(), cycle_graph(6), nsb_graph("Z12", [6])]:
        first = next(g.neighbors(0))
        through = ((1 << g.vertex_count) - 1) & ~(1 << 0 | 1 << first)
        cycle = inv._path(g.rows, first, through, 1 << 0)
        assert len(cycle) == len(set(cycle)) >= 3
        assert all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))
    # _path's whole contract on seeded random graphs: a shortest path to
    # targets, inner vertices in through, and a first step not into targets.
    rng = random.Random(20261020)
    found = 0
    for _ in range(400):
        n = rng.randint(3, 24)
        g = random_graph(rng, n, rng.choice([0.1, 0.2, 0.35, 0.6]))
        start, *rest = rng.sample(range(n), n)
        cut = rng.randint(1, len(rest))
        targets, through = set(rest[:cut]), {v for v in rest[cut:] if rng.random() < 0.8}
        want = path_distance(g, start, through, targets)
        if want is None:
            continue
        found += 1
        path = inv._path(g.rows, start, sum(1 << v for v in through), sum(1 << v for v in targets))
        assert path[0] == start and path[-1] in targets
        assert set(path[1:-1]) <= through
        assert path[1] not in targets
        assert all(g.has_edge(a, b) for a, b in zip(path, path[1:]))
        assert len(path) - 1 == want
    assert found >= 100


def test_planarity_is_subdivision_consistent():
    for g, expected in [
        (complete_graph(5), False),
        (k33(), False),
        (complete_graph(4), True),
        (cycle_graph(5), True),
    ]:
        assert inv.is_planar(g) == expected
        once = subdivide(g, g.edges()[0])
        assert inv.is_planar(once) == expected
        twice = subdivide(once, once.edges()[-1])
        assert inv.is_planar(twice) == expected


def test_planarity_exhaustive_six_vertices_against_subdivision_oracle():
    pairs = list(itertools.combinations(range(6), 2))
    for mask in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (mask >> i) & 1]
        g = SimpleGraph(labels(6), edges)
        assert inv.is_planar(g) == brute_is_planar(g), f"mismatch on edge set {edges}"


def test_planarity_random_seven_and_eight_vertices_against_oracle():
    rng = random.Random(1405)
    for _ in range(150):
        n = rng.choice([7, 8])
        g = random_graph(rng, n, rng.choice([0.3, 0.45, 0.6]))
        assert inv.is_planar(g) == brute_is_planar(g)


def stacked_triangulation(rng, n):
    """The edges of a planar triangulation of n >= 3 vertices, 3n - 6 of them:
    each new vertex goes into a random face and is joined to its three corners.
    The vertices are shuffled, so the embedding does not meet them in order."""
    name = rng.sample(range(n), n)
    edges = [(0, 1), (0, 2), (1, 2)]
    faces = [(0, 1, 2), (0, 1, 2)]  # the two sides of the first triangle
    for v in range(3, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges += [(a, v), (b, v), (c, v)]
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return sorted(tuple(sorted((name[u], name[v]))) for u, v in edges)


def planarity_graphs_at_scale():
    """Q8xQ8's power graph (64 vertices, planar), then, for n = 25, 30, ..., 80,
    a stacked triangulation, the same with one edge swapped for a non-edge,
    and a random half of its edges."""
    G = grp("Q8xQ8")
    graphs = [nsb_power_graph(G, generated_subgroup(G, [0])).graph]
    rng = random.Random(20261041)
    for n in range(25, 81, 5):
        edges = stacked_triangulation(rng, n)
        assert len(edges) == len(set(edges)) == 3 * n - 6
        missing = sorted(set(itertools.combinations(range(n), 2)) - set(edges))
        swapped = rng.sample(edges, len(edges) - 1) + [rng.choice(missing)]
        half = rng.sample(edges, len(edges) // 2)
        graphs += [SimpleGraph(labels(n), es) for es in (edges, swapped, half)]
    return graphs


def test_planarity_and_blocks_match_networkx(catalog_pairs):
    import networkx as nx  # a test oracle only, never a runtime dependency

    def reference(edges, n):
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        return h

    rng = random.Random(20261019)
    graphs = []
    for _ in range(300):
        n = rng.randint(5, 60)
        pairs = list(itertools.combinations(range(n), 2))
        graphs.append(SimpleGraph(labels(n), rng.sample(pairs, rng.randint(n - 1, 3 * n - 6))))
    halves_with_cut_vertices = 0
    for _ in range(12):
        n = rng.randint(5, 24)
        pairs = list(itertools.combinations(range(n), 2))
        rng.shuffle(pairs)
        h = reference([], n)
        for e in pairs:  # greedily keep every edge that leaves the graph planar
            h.add_edge(*e)
            if not nx.check_planarity(h)[0]:
                h.remove_edge(*e)
        edges = sorted(h.edges())
        assert len(edges) == 3 * n - 6  # maximal planar
        missing = [e for e in pairs if not h.has_edge(*e)]
        swapped = rng.sample(edges, len(edges) - 1) + [rng.choice(missing)]  # still 3n - 6 edges
        half = rng.sample(edges, len(edges) // 2)
        halves_with_cut_vertices += any(nx.articulation_points(reference(half, n)))
        for es in (edges, edges + [rng.choice(missing)], swapped, half):
            graphs.append(SimpleGraph(labels(n), es))
    assert halves_with_cut_vertices > 0
    graphs += [nsb_power_graph(G, H).graph for G, H in catalog_pairs]
    at_scale = planarity_graphs_at_scale()
    assert sorted(b.bit_count() for b in inv._blocks(at_scale[0].rows)) == [14, 14, 38]
    outcomes = collections.Counter()
    for scaled, g in [(False, g) for g in graphs] + [(True, g) for g in at_scale]:
        h = reference(g.edges(), g.vertex_count)
        want = nx.check_planarity(h)[0]
        assert inv.is_planar(g) == want, g.edges()
        outcomes[want, scaled] += 1
        blocks = sorted(sum(1 << v for v in c) for c in nx.biconnected_components(h))
        assert sorted(inv._blocks(g.rows)) == blocks, g.edges()
    assert outcomes[True, False] and outcomes[False, False]
    # Q8xQ8, the 12 triangulations and their 12 halves are planar; the 12 swaps are not
    assert (outcomes[True, True], outcomes[False, True]) == (25, 12)


def test_planar_blocks_come_with_their_faces(catalog_pairs):
    """Every embedded block's faces are closed walks that use each edge once
    in each direction, and there are m - n + 2 of them (Euler's formula)."""
    graphs = planarity_graphs_at_scale() + [nsb_power_graph(G, H).graph for G, H in catalog_pairs]
    checked = 0
    for g in graphs:
        if not inv.is_planar(g):
            continue
        for block in inv._blocks(g.rows):
            n = block.bit_count()
            if n < 3:  # a single edge bounds no face
                continue
            rows = [row & block if (block >> v) & 1 else 0 for v, row in enumerate(g.rows)]
            m = sum(row.bit_count() for row in rows) // 2
            faces = inv._demoucron_planar(g.rows, block)
            assert faces is not None and len(faces) == m - n + 2
            darts = [(a, b) for face in faces for a, b in zip(face, face[1:] + face[:1])]
            assert all((rows[a] >> b) & 1 for a, b in darts), "a face steps along a non-edge"
            assert len(darts) == len(set(darts)) == 2 * m, "an edge is not walked once each way"
            checked += n > 4
    assert checked >= 30


def test_planarity_matches_networkx_with_planted_kernel_reductions():
    """Random graphs with pendant vertices, subdivided edges, paths beside an
    edge and adjacent degree-3 closed twins planted on an edge, some planted on
    earlier plants, so the kernel's three deletions run in cascades."""
    import networkx as nx  # a test oracle only, never a runtime dependency

    rng = random.Random(20261050)
    outcomes = collections.Counter()
    for _ in range(1200):
        n = rng.randint(4, 10)
        p = rng.choice([0.3, 0.45, 0.6, 0.75])
        edges = {e for e in itertools.combinations(range(n), 2) if rng.random() < p}
        for _ in range(rng.randint(1, 6)):
            kind = rng.choice(["pendant", "subdivide", "beside", "twins"])
            if kind == "pendant" or not edges:
                edges.add((rng.randrange(n), n))
                n += 1
                continue
            a, b = rng.choice(sorted(edges))
            if kind == "subdivide":
                edges.remove((a, b))
            if kind == "twins":
                edges |= {(a, n), (b, n), (a, n + 1), (b, n + 1), (n, n + 1)}
                n += 2
            else:
                edges |= {(a, n), (b, n)}
                n += 1
        g = SimpleGraph(labels(n), sorted(edges))
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(edges)
        want = nx.check_planarity(h)[0]
        assert inv.is_planar(g) == want, sorted(edges)
        outcomes[want] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 300


def test_planar_kernel_keeps_what_a_wider_rule_would_lose():
    # K5 plus a pendant vertex: a twin rule widened to degree 4 would empty the K5
    k5_pendant = SimpleGraph(labels(6), list(itertools.combinations(range(5), 2)) + [(0, 5)])
    assert not inv.is_planar(k5_pendant)
    assert sum(1 for row in inv._planar_kernel(k5_pendant.rows) if row) == 5
    # K3 joined to three independent vertices (K3,3 plus a triangle, 3n - 6
    # edges): each of 3, 4 and 5 has degree 3 and a triangle for neighbours,
    # but no closed twin, so the kernel keeps every vertex
    join = SimpleGraph(labels(6), [(0, 1), (0, 2), (1, 2)] + [(a, b) for a in range(3) for b in range(3, 6)])
    assert join.edge_count == 3 * 6 - 6
    assert not inv.is_planar(join)
    assert inv._planar_kernel(join.rows) == join.rows


def test_planar_kernel_of_a_planar_nsb_graph_has_no_edges(catalog_pairs):
    """PLANAR_5_4's graphs, |H| = 2 or 3 and G/H of exponent 2, are fans of K3
    or K4 blocks on the identity: the kernel deletes every edge, as it does on
    every planar default-catalog graph and on Gamma_{e}(Q8xQ8)."""
    G = grp("Q8xQ8")
    q8q8 = nsb_power_graph(G, generated_subgroup(G, [0])).graph
    assert inv.is_planar(q8q8) and not any(inv._planar_kernel(q8q8.rows))
    hypothesis = [
        (G, H)
        for G, H in catalog_pairs
        if H.order in (2, 3) and all(G.table[a][a] in H.elements for a in range(G.order))
    ]
    assert len(hypothesis) == 37
    for G, H in hypothesis:
        assert not any(inv._planar_kernel(nsb_power_graph(G, H).graph.rows)), (G.name, H.elements)
    planar = [g for g in (nsb_power_graph(G, H).graph for G, H in catalog_pairs) if inv.is_planar(g)]
    assert len(planar) == 54
    assert not any(any(inv._planar_kernel(g.rows)) for g in planar)


# --- perfectness -------------------------------------------------------------


def test_perfect_anchors():
    assert not inv.is_perfect(cycle_graph(5))
    assert not inv.is_perfect(cycle_graph(7))
    assert not inv.is_perfect(cycle_graph(7).complement())
    assert not inv.is_perfect(petersen())
    assert inv.is_perfect(complete_graph(6))
    assert inv.is_perfect(cycle_graph(6))
    assert inv.is_perfect(path_graph(7))
    assert inv.is_perfect(nsb_graph("Z12", [6]))


def test_perfect_matches_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 11), rng.choice([0.3, 0.5, 0.7]))
        assert inv.is_perfect(g) == brute_is_perfect(g)


def plant_twins(rng, g, count):
    """g with count more vertices, each a true or a false twin of a vertex before it:
    with that vertex's closed or its open neighbourhood."""
    for _ in range(count):
        n, v = g.vertex_count, rng.randrange(g.vertex_count)
        true_twin = [(v, n)] if rng.random() < 0.5 else []
        g = SimpleGraph(labels(n + 1), g.edges() + true_twin + [(w, n) for w in g.neighbors(v)])
    return g


def test_twin_reduced_perfectness_matches_oracle():
    rng = random.Random(20261019)
    imperfect = [cycle_graph(5), cycle_graph(7), cycle_graph(7).complement(), petersen()]
    cases = [(g, False) for g in imperfect]
    for _ in range(60):
        g = random_graph(rng, rng.randint(4, 7), rng.choice([0.3, 0.5, 0.7]))
        cases.append((g, brute_is_perfect(g)))
    seen = set()
    for g, want in cases:
        for _ in range(3):
            twinned = plant_twins(rng, g, rng.randint(1, 4))
            # Neither kind of twin makes or breaks an odd hole or antihole.
            assert brute_is_perfect(twinned) == want
            assert inv.is_perfect(twinned) == want
            seen.add(want)
    assert seen == {True, False}


def plant_near_twins(rng, g, count):
    """g with count more vertices, each with a vertex's neighbourhood, open or closed,
    with one vertex added or removed: not a twin, so the rule must keep it."""
    for _ in range(count):
        n, v = g.vertex_count, rng.randrange(g.vertex_count)
        near = set(g.neighbors(v)) ^ {rng.randrange(n)}
        if rng.random() < 0.5:
            near.add(v)
        g = SimpleGraph(labels(n + 1), g.edges() + [(w, n) for w in sorted(near)])
    return g


def test_twin_deletion_keeps_near_twins():
    rng = random.Random(20261018)
    bases = [cycle_graph(5), cycle_graph(7), cycle_graph(7).complement(), petersen()]
    bases += [random_graph(rng, rng.randint(4, 7), rng.choice([0.3, 0.5, 0.7])) for _ in range(60)]
    seen = set()
    for g in bases:
        for _ in range(3):
            h = plant_near_twins(rng, g, rng.randint(1, 3))
            want = brute_is_perfect(h)
            assert inv.is_perfect(h) == want, h.edges()
            seen.add(want)
    assert seen == {True, False}


def test_perfectness_of_a_star_is_searched_on_one_vertex(monkeypatch):
    # Gamma_{e}(E(2,8)): the identity joined to 255 pairwise false twins. One pass
    # leaves the identity and one leaf, true twins of each other; the next leaves one.
    G = grp("E(2,8)")
    g = nsb_power_graph(G, generated_subgroup(G, [])).graph
    assert g.vertex_count == 256 and g.edge_count == 255
    searched = []
    search = inv._has_odd_hole
    monkeypatch.setattr(
        inv, "_has_odd_hole", lambda rows, mask: searched.append(mask.bit_count()) or search(rows, mask)
    )
    assert inv.is_perfect(g, budget=10**6) is True
    assert searched == [1, 1]
    with pytest.raises(inv.BudgetExceeded, match="256 vertices exceeds budget 24"):
        inv.is_perfect(g)  # the budget still counts the input's vertices


def test_odd_hole_search_on_a_random_mask_matches_brute_force_on_the_induced_subgraph():
    rng = random.Random(20261020)
    found = collections.Counter()
    for _ in range(1000):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.choice([0.3, 0.4, 0.5, 0.6, 0.7]))
        mask = sum(1 << v for v in range(n) if rng.random() < 0.8) or 1
        sub = induced_subgraph(g, [v for v in range(n) if mask >> v & 1])
        for rows, on in ((g.rows, sub), (g.complement().rows, sub.complement())):
            hole = inv._has_odd_hole(rows, mask)
            assert hole == brute_has_odd_hole(on), (g.edges(), mask)
            found[hole] += 1
    assert found[True] >= 100 and found[False] >= 100, found


def test_twin_reduced_perfectness_matches_unreduced_search_on_catalog(catalog_pairs):
    for G, H in catalog_pairs:
        g = nsb_power_graph(G, H).graph
        full = (1 << g.vertex_count) - 1
        unreduced = not inv._has_odd_hole(g.rows, full) and not inv._has_odd_hole(g.complement().rows, full)
        assert inv.is_perfect(g) == unreduced


# --- comparability: omega, chi and perfectness from the group's coset chains --


def assert_the_coset_chain_gives_omega_and_chi(G, H, budget=inv.DEFAULT_SOLVER_BUDGET):
    """Adjacency is comparability of the sets <aH>; the heaviest chain is a clique,
    the interval colouring is proper, and both have omega = chi vertices and colours."""
    g = nsb_power_graph(G, H).graph
    chain = coset_chain(G, H.elements)
    sets = chain.cosets
    for u, v in itertools.combinations(range(g.vertex_count), 2):
        assert g.has_edge(u, v) == (sets[u] <= sets[v] or sets[v] <= sets[u])
    assert all(g.has_edge(u, v) for u, v in itertools.combinations(chain.chain, 2))
    assert all(chain.colouring[u] != chain.colouring[v] for u, v in g.edges())
    omega = len(chain.chain)
    assert set(chain.colouring) == set(range(omega))
    assert inv.clique_number(g, budget)[0] == omega == inv.chromatic_number(g, budget)[0]
    return g


def test_the_coset_chain_gives_omega_chi_and_perfectness_on_the_catalog(catalog_pairs):
    assert len(catalog_pairs) == 223
    for G, H in catalog_pairs:
        assert inv.is_perfect(assert_the_coset_chain_gives_omega_and_chi(G, H))


@pytest.mark.parametrize("text, gens, n", [("Q8xQ8", [0], 64), ("E(2,5)", [0], 32), ("S5", [0], 120), ("D64", [2], 97)])
def test_the_coset_chain_gives_omega_and_chi_on_large_nsb_graphs(text, gens, n):
    G = grp(text)
    g = assert_the_coset_chain_gives_omega_and_chi(G, generated_subgroup(G, gens), budget=10**6)
    assert g.vertex_count == n


# --- hamiltonian -------------------------------------------------------------


def test_hamiltonian_anchors():
    cycle = inv.hamiltonian_cycle(complete_graph(5))
    assert cycle is not None and len(cycle) == 5
    assert inv.hamiltonian_cycle(path_graph(3)) is None
    assert inv.hamiltonian_cycle(petersen()) is None
    assert inv.hamiltonian_cycle(nsb_graph("D4", [2])) is None
    assert inv.hamiltonian_cycle(SimpleGraph(["a"], [])) is None
    assert inv.hamiltonian_cycle(SimpleGraph(["a", "b"], [(0, 1)])) is None
    # K5 with a pendant vertex: at vertex 0 the degree check refuses it, elsewhere the search.
    pendant_at_0 = [(0, 1), *itertools.combinations(range(1, 6), 2)]
    assert inv.hamiltonian_cycle(SimpleGraph(labels(6), pendant_at_0)) is None
    pendant_at_5 = [*itertools.combinations(range(5), 2), (2, 5)]
    assert inv.hamiltonian_cycle(SimpleGraph(labels(6), pendant_at_5)) is None
    assert inv.hamiltonian_cycle(disjoint_union(complete_graph(3), complete_graph(3))) is None


def test_power_graphs_of_cyclic_groups_are_hamiltonian():
    for n in range(3, 13):
        cycle = inv.hamiltonian_cycle(power_graph(grp(f"Z{n}")))
        assert cycle is not None


def test_hamiltonian_oracles_agree():
    # The subset DP against the permutation scan it replaced as the oracle.
    rng = random.Random(1973)
    outcomes = set()
    for _ in range(300):
        g = random_graph(rng, rng.randint(1, 8), rng.choice([0.3, 0.5, 0.7, 0.9]))
        found = brute_hamiltonian_exists(g)
        assert found == brute_hamiltonian_by_permutations(g)
        outcomes.add(found)
    assert outcomes == {True, False}


def test_hamiltonian_witness_is_valid():
    for g in [complete_graph(6), gamma_z6(), nsb_graph("Z12", [6])]:
        cycle = inv.hamiltonian_cycle(g)
        assert cycle is not None
        assert sorted(cycle) == list(range(g.vertex_count))
        for i in range(len(cycle)):
            assert g.has_edge(cycle[i], cycle[(i + 1) % len(cycle)])


def components_without(g, cut):
    """The number of components of g minus the vertex mask cut, by breadth-first search."""
    left = {v for v in range(g.vertex_count) if not cut >> v & 1}
    count = 0
    while left:
        count += 1
        queue = [left.pop()]
        while queue:
            for v in g.neighbors(queue.pop()):
                if v in left:
                    left.remove(v)
                    queue.append(v)
    return count


def assert_toughness_certificate(g, cut):
    """cut is a degree-ordered prefix that ends where the degree drops, leaves at
    least 3 vertices, and leaves more components than it has vertices."""
    inside = [g.degree(v) for v in range(g.vertex_count) if cut >> v & 1]
    outside = [g.degree(v) for v in range(g.vertex_count) if not cut >> v & 1]
    assert inside and len(outside) >= 3
    assert min(inside) > max(outside)
    assert components_without(g, cut) > len(inside)


def test_petersen_is_one_tough_so_the_search_decides_it(monkeypatch):
    g = petersen()
    assert inv._tough_cut(g.rows) == 0
    steps = collections.Counter()
    connected = inv._mask_connected

    def counting(*args):
        steps["search"] += 1
        return connected(*args)

    monkeypatch.setattr(inv, "_mask_connected", counting)  # each search node tests connectivity
    assert inv.hamiltonian_cycle(g) is None
    assert brute_hamiltonian_exists(g) is False
    assert steps["search"] > 1


def test_no_prefix_ends_inside_a_tie():
    # Two triangles joined by the edge a-b, a and b of degree 3: {a} alone leaves 2
    # components, but that prefix ends inside the tie between a and b, and {a, b}
    # leaves only 2. So no prefix refutes, and the search answers.
    g = SimpleGraph(labels(6), [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert components_without(g, 1 << 2) == components_without(g, 1 << 2 | 1 << 3) == 2
    assert inv._tough_cut(g.rows) == 0
    assert inv.hamiltonian_cycle(g) is None


@pytest.mark.parametrize("n", range(3, 13))
def test_dicyclic_obstruction_is_refused_by_a_cut_of_two(n):
    # The power graph of Dic_n as a plain graph: e and the central involution are
    # universal, the other 4n - 2 elements form n disjoint edges and a K_{2n-2}.
    pairs = [(2 * i, 2 * i + 1) for i in range(n)]
    clique = itertools.combinations(range(2 * n, 4 * n - 2), 2)
    g = plant_universal(random.Random(n), SimpleGraph(labels(4 * n - 2), pairs + list(clique)), 2)
    cut = inv._tough_cut(g.rows)
    assert cut.bit_count() == 2 and {v for v in range(4 * n) if cut >> v & 1} == universal_vertices(g)
    assert components_without(g, cut) == n + 1 > 2
    assert_toughness_certificate(g, cut)
    assert inv.hamiltonian_cycle(g) is None


def test_hamiltonicity_with_the_toughness_refusal_matches_the_dp_oracle():
    rng = random.Random(1973)
    refused = searched = 0
    for _ in range(300):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.7]))
        if rng.random() < 0.5:  # a few universal vertices over a sparse rest: small separators
            count = rng.randint(1, min(3, n - 1))
            g = plant_universal(rng, random_graph(rng, n - count, rng.choice([0.1, 0.2, 0.3])), count)
        cycle = inv.hamiltonian_cycle(g)
        assert (cycle is not None) == brute_hamiltonian_exists(g)
        cut = inv._tough_cut(g.rows)
        if cut:
            assert cycle is None
            assert_toughness_certificate(g, cut)
            refused += 1
        elif cycle is None and g.rows[0].bit_count() >= 2:
            searched += 1
    assert refused >= 100 and searched >= 10


def test_a_cut_that_leaves_exactly_three_vertices_is_tried():
    # K2 joined to three independent vertices: removing the two of degree 4 leaves
    # the other three isolated, 3 components for a cut of 2, and exactly 3 vertices.
    g = SimpleGraph(labels(5), [(0, 1), *((a, b) for a in (0, 1) for b in (2, 3, 4))])
    assert inv._tough_cut(g.rows) == 0b11
    assert_toughness_certificate(g, 0b11)
    assert inv.hamiltonian_cycle(g) is None


def grid_graph(r, c):
    edges = [(i * c + j, i * c + j + 1) for i in range(r) for j in range(c - 1)]
    edges += [(i * c + j, (i + 1) * c + j) for i in range(r - 1) for j in range(c)]
    return SimpleGraph(labels(r * c), edges)


def hypercube(d):
    return SimpleGraph(labels(1 << d), [(v, v | 1 << k) for v in range(1 << d) for k in range(d) if not v >> k & 1])


def generalized_petersen(n, k):
    edges = [(i, (i + 1) % n) for i in range(n)] + [(i, n + i) for i in range(n)]
    edges += [(n + i, n + (i + k) % n) for i in range(n)]
    return SimpleGraph(labels(2 * n), edges)


def wheel(n):
    return SimpleGraph(labels(n + 1), [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)])


def assert_same_cycle_and_cut_as_the_neighbour_lists(g):
    """The search and the cut equal the frozen copies of the per-vertex neighbour
    lists and the degree-sorted prefixes; returns whether a cycle was found."""
    cycle = inv.hamiltonian_cycle(g)
    assert cycle == neighbour_list_hamiltonian_cycle(g.rows)
    assert inv._tough_cut(g.rows) == prefix_tough_cut(g.rows)
    return cycle is not None


def test_cycles_equal_the_neighbour_list_search_on_group_graphs(catalog_pairs):
    # Every distinct Gamma_H(G) and Gamma(G/H) of the default catalog, and of every
    # proper normal subgroup of three products whose graphs reach 36 vertices.
    pairs = list(catalog_pairs)
    for text in ("S3xZ6", "D6xZ3", "Q8xZ3"):
        G = grp(text)
        pairs += [(G, H) for H in all_normal_subgroups(G) if H.order < G.order]
    graphs = {}
    for G, H in pairs:
        for g in (nsb_power_graph(G, H).graph, power_graph(quotient(G, H).group)):
            graphs[g.rows] = g
    assert len(graphs) == 149
    found = [assert_same_cycle_and_cut_as_the_neighbour_lists(g) for g in graphs.values()]
    assert 0 < sum(found) < len(found)


def test_cycles_equal_the_neighbour_list_search_on_complete_and_sparse_graphs():
    graphs = [complete_graph(n) for n in range(3, 41)]
    graphs += [cycle_graph(n) for n in (5, 7, 12, 40)] + [petersen(), hypercube(4), hypercube(5)]
    graphs += [generalized_petersen(n, 2) for n in range(5, 13)] + [wheel(n) for n in range(3, 13)]
    graphs += [grid_graph(r, c) for r in range(2, 6) for c in range(r, 7)]  # up to 5 x 6
    found = [assert_same_cycle_and_cut_as_the_neighbour_lists(g) for g in graphs]
    # Petersen, GP(5, 2) (Petersen again), GP(11, 2) (n = 5 mod 6) and the 3x3, 3x5 and 5x5 grids have none.
    assert found.count(False) == 6


def test_cycles_equal_the_neighbour_list_search_on_random_graphs():
    rng = random.Random(4901)
    searched = found = 0
    for _ in range(1500):
        n = rng.randint(3, 12)
        g = random_graph(rng, n, rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        found += assert_same_cycle_and_cut_as_the_neighbour_lists(g)
        searched += not inv.is_complete(g) and g.rows[0].bit_count() > 1 and not prefix_tough_cut(g.rows)
    assert searched >= 700 and found >= 600


def test_tough_cuts_equal_the_degree_sorted_prefixes_on_random_graphs():
    rng = random.Random(4902)
    cuts = 0
    for _ in range(20000):
        g = random_graph(rng, rng.randint(1, 16), rng.choice([0.1, 0.2, 0.35, 0.5, 0.7]))
        cut = inv._tough_cut(g.rows)
        assert cut == prefix_tough_cut(g.rows)
        cuts += cut != 0
    assert cuts >= 7000


# --- universal vertices --------------------------------------------------------


def test_kappa_and_omega_with_universal_vertices_match_networkx():
    import networkx as nx  # a test oracle only, never a runtime dependency

    rng = random.Random(20261018)
    rest_connected = []
    for i in range(40):
        count = rng.randint(1, 3)
        size = rng.randint(2, 40 - count)
        if i % 2:  # two parts with no edge between them: G - U is disconnected
            p = rng.choice([0.1, 0.3, 0.5, 0.8])
            first = rng.randint(1, size - 1)
            base = disjoint_union(random_graph(rng, first, p), random_graph(rng, size - first, p))
        else:  # G - U is connected unless the draw is sparse
            base = random_graph(rng, size, rng.choice([0.3, 0.5, 0.8]))
        g = plant_universal(rng, base, count)
        reference = nx.Graph()
        reference.add_nodes_from(range(g.vertex_count))
        reference.add_edges_from(g.edges())
        universal = universal_vertices(g)
        assert len(universal) >= count
        k, cut = inv.vertex_connectivity(g)
        assert k == nx.node_connectivity(reference)
        if not inv.is_complete(g):
            rest = reference.subgraph(set(range(g.vertex_count)) - universal)
            rest_connected.append(nx.is_connected(rest))
            assert_cut_witness(g, k, cut)
            assert universal <= set(cut)
        omega, clique = inv.clique_number(g)
        assert omega == nx.max_weight_clique(reference, weight=None)[1]
        assert len(clique) == omega and universal <= set(clique)
        assert all(g.has_edge(u, v) for u, v in itertools.combinations(clique, 2))
    assert rest_connected.count(True) >= 5 and rest_connected.count(False) >= 5


def test_chi_and_hamiltonicity_with_universal_vertices_match_brute_force(small_graphs):
    rng = random.Random(20261018)
    graphs, randoms = small_graphs
    for g in graphs + randoms:
        for h in (g, plant_universal(rng, g, rng.randint(1, 3))):
            universal = universal_vertices(h)
            k, coloring = inv.chromatic_number(h)
            assert k == brute_chromatic_number(h)
            assert len(set(coloring)) == k
            assert all(coloring[u] != coloring[v] for u, v in h.edges())
            # Each vertex of omega's witness, which holds U, takes its index as its colour.
            clique = inv.clique_number(h)[1]
            assert universal <= set(clique)
            assert [coloring[v] for v in clique] == list(range(len(clique)))
            cycle = inv.hamiltonian_cycle(h)
            assert (cycle is not None) == brute_hamiltonian_exists(h)
            if cycle is not None:
                assert sorted(cycle) == list(range(h.vertex_count))
                assert all(h.has_edge(a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


@pytest.mark.parametrize("n", range(3, 13))
def test_complete_graphs_get_the_identity_cycle(n):
    assert inv.hamiltonian_cycle(complete_graph(n)) == tuple(range(n))


@pytest.mark.parametrize(
    "solver, also",
    [
        ("vertex_connectivity", {}),
        ("clique_number", {}),
        ("chromatic_number", {"clique_number": 1}),  # its clique bound, one call as before
    ],
)
def test_solvers_on_universal_vertices_call_no_public_solver_again(monkeypatch, solver, also):
    # A tracer rebinds the public names, so the reduction to G - U must recurse
    # through private bodies only: one public call per solve.
    calls = collections.Counter()
    for name in ("vertex_connectivity", "clique_number", "chromatic_number", "hamiltonian_cycle"):
        public = getattr(inv, name)

        def counting(*args, _name=name, _public=public, **kwargs):
            calls[_name] += 1
            return _public(*args, **kwargs)

        monkeypatch.setattr(inv, name, counting)
    rest_connected = plant_universal(random.Random(3), petersen(), 2)
    rest_disconnected = nsb_graph("Z12", [6])
    for g in (rest_connected, rest_disconnected):
        assert universal_vertices(g)
        calls.clear()
        getattr(inv, solver)(g)
        assert calls == collections.Counter({solver: 1, **also})


def test_kappa_perfectness_and_chi_build_no_graph_below_the_public_call(monkeypatch):
    # The cores read the input's rows through a vertex mask: kappa's flows run on
    # G - U without an induced copy, and the odd-hole search on the twin residue
    # without a complement graph.
    rest_connected = plant_universal(random.Random(3), petersen(), 2)
    with_twins = nsb_graph("Z24", [12])
    graphs = (rest_connected, with_twins)
    for g in graphs:
        assert inv.vertex_connectivity(g)[0] > len(universal_vertices(g)) > 0  # flows ran on G - U
    assert len({row | 1 << v for v, row in enumerate(with_twins.rows)}) < with_twins.vertex_count
    built = []
    set_rows = SimpleGraph._set_rows
    monkeypatch.setattr(SimpleGraph, "_set_rows", lambda self, *args: built.append(self) or set_rows(self, *args))
    for g in graphs:
        inv.vertex_connectivity(g)
        inv.is_perfect(g)
        inv.chromatic_number(g)
    assert built == []


# --- degree formula ------------------------------------------------------------


def test_degree_formula_anchors():
    Z6 = grp("Z6")
    assert inv.degree_in_power_graph_formula(Z6)[2] == 4
    Z5 = grp("Z5")
    assert all(inv.degree_in_power_graph_formula(Z5)[v] == 4 for v in range(1, 5))
    for n in [2, 3, 6, 8, 12]:
        G = grp(f"Z{n}")
        assert inv.degree_in_power_graph_formula(G)[0] == n - 1


def assert_degree_formula_matches_pair_scan(G):
    # The pair-scanning build, since power_graph shares the formula's cyclic classes.
    brute = power_graph_brute(G)
    assert inv.degree_in_power_graph_formula(G) == tuple(map(brute.degree, G.elements())), G.name


@pytest.mark.parametrize("text", ["Z6", "Z12", "Z24", "D4", "D6", "Q8", "S3", "S4", "E(2,3)"])
def test_degree_formula_matches_actual_degrees(text):
    assert_degree_formula_matches_pair_scan(grp(text))


@pytest.mark.parametrize("text,gens", LARGE_PAIRS)
def test_degree_formula_matches_actual_degrees_at_scale(text, gens):
    G = grp(text)
    assert_degree_formula_matches_pair_scan(G)
    assert_degree_formula_matches_pair_scan(quotient(G, generated_subgroup(G, gens)).group)


# --- budgets -------------------------------------------------------------------


def test_budget_refusals():
    g = complete_graph(6)
    with pytest.raises(inv.BudgetExceeded):
        inv.clique_number(g, budget=5)
    with pytest.raises(inv.BudgetExceeded):
        inv.chromatic_number(g, budget=5)
    with pytest.raises(inv.BudgetExceeded):
        inv.is_perfect(g, budget=5)
    with pytest.raises(inv.BudgetExceeded):
        inv.hamiltonian_cycle(g, budget=5)


def test_compute_invariants_partial_on_budget():
    g = complete_graph(6)
    result = inv.compute_invariants(g, solver_budget=5, odd_hole_budget=5)
    assert result.clique_number is None
    assert result.chromatic_number is None
    assert result.is_planar is False  # no budget on planarity either
    assert result.is_perfect is None
    assert result.is_hamiltonian is None
    assert result.vertex_connectivity == 5  # no budget on the flow computation
    assert set(result.skipped) == {
        "clique_number",
        "chromatic_number",
        "is_perfect",
        "is_hamiltonian",
    }


def test_compute_invariants_full_bundle():
    g = nsb_graph("Z6", [3])
    result = inv.compute_invariants(g)
    assert result.is_complete and result.clique_number == 5
    assert result.chromatic_number == 5
    assert result.vertex_connectivity == 4
    assert result.is_planar is False
    assert result.is_perfect is True
    assert result.is_hamiltonian is True
    assert result.skipped == ()
    obj = inv.invariants_to_json_obj(result)
    assert obj["girth"] == 3
    assert obj["witnesses"]["clique"] == [0, 1, 2, 3, 4]


# --- solver equivalence on random graphs ----------------------------------------


def test_chi_at_least_omega_everywhere():
    rng = random.Random(5)
    for _ in range(40):
        g = random_graph(rng, rng.randint(2, 10), rng.choice([0.3, 0.5, 0.8]))
        omega = inv.clique_number(g)[0]
        chi = inv.chromatic_number(g)[0]
        assert chi >= omega


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_solvers_match_brute_force(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    p = data.draw(st.sampled_from([0.2, 0.4, 0.6, 0.8]))
    seed = data.draw(st.integers(min_value=0, max_value=10**6))
    g = random_graph(random.Random(seed), n, p)
    assert inv.clique_number(g)[0] == brute_clique_number(g)
    assert inv.chromatic_number(g)[0] == brute_chromatic_number(g)
    assert inv.vertex_connectivity(g)[0] == brute_vertex_connectivity(g)
    assert (inv.hamiltonian_cycle(g) is not None) == brute_hamiltonian_exists(g)
