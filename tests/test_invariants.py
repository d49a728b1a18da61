import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nspg.invariants as inv
from nspg.groups import make_group, parse_group_spec
from nspg.power_graphs import SimpleGraph, nsb_power_graph, power_graph
from nspg.subgroups import generated_subgroup
from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_girth,
    brute_hamiltonian_by_permutations,
    brute_hamiltonian_exists,
    brute_is_perfect,
    brute_is_planar,
    brute_vertex_connectivity,
    random_graph,
)


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
    assert inv._k_colorable(g, 2, clique) is None
    assert inv._k_colorable(g, 3, clique) is None
    k, coloring = inv.chromatic_number(g)
    assert k == 4 == brute_chromatic_number(g)
    assert len(set(coloring)) == 4
    assert all(coloring[u] != coloring[v] for u, v in g.edges())


def test_chromatic_witness_is_proper():
    for g in [gamma_z6(), petersen(), cycle_graph(7), nsb_graph("Z12", [6])]:
        k, coloring = inv.chromatic_number(g)
        assert len(set(coloring)) == k
        for u, v in g.edges():
            assert coloring[u] != coloring[v]


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


def assert_cut_witness(g, k, cut):
    """The witness has k vertices and its removal disconnects g."""
    assert cut is not None and len(cut) == k
    keep = [v for v in range(g.vertex_count) if v not in set(cut)]
    relabel = {v: i for i, v in enumerate(keep)}
    sub = SimpleGraph(
        [str(v) for v in keep],
        [(relabel[u], relabel[v]) for u, v in g.edges() if u in relabel and v in relabel],
    )
    assert not inv.is_connected(sub)


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
    assert inv._max_vertex_disjoint_paths(g, 0, 9) == (2, [1, 2])


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


def test_first_cycle_of_the_embedding_is_simple():
    for g in [complete_graph(5), k33(), petersen(), cycle_graph(6), nsb_graph("Z12", [6])]:
        first = next(g.neighbors(0))
        through = ((1 << g.vertex_count) - 1) & ~(1 << 0 | 1 << first)
        cycle = inv._path(g.rows, first, through, 1 << 0)
        assert len(cycle) == len(set(cycle)) >= 3
        assert all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(len(cycle)))


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
    outcomes = set()
    for g in graphs:
        h = reference(g.edges(), g.vertex_count)
        want = nx.check_planarity(h)[0]
        assert inv.is_planar(g) == want, g.edges()
        outcomes.add(want)
        blocks = sorted(sum(1 << v for v in c) for c in nx.biconnected_components(h))
        assert sorted(inv._blocks(g.rows)) == blocks, g.edges()
    assert outcomes == {True, False}


# --- perfectness -------------------------------------------------------------


def test_perfect_anchors():
    assert not inv.is_perfect(cycle_graph(5))
    assert not inv.is_perfect(cycle_graph(7))
    assert not inv.is_perfect(cycle_graph(7).complement())
    assert inv.is_perfect(complete_graph(6))
    assert inv.is_perfect(cycle_graph(6))
    assert inv.is_perfect(path_graph(7))
    assert inv.is_perfect(nsb_graph("Z12", [6]))


def test_perfect_matches_oracle_on_random_graphs():
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(5, 11), rng.choice([0.3, 0.5, 0.7]))
        assert inv.is_perfect(g) == brute_is_perfect(g)


def plant_true_twins(rng, g, count):
    """g with count more vertices, each with the closed neighbourhood of a vertex before it."""
    for _ in range(count):
        n, v = g.vertex_count, rng.randrange(g.vertex_count)
        g = SimpleGraph(labels(n + 1), g.edges() + [(v, n)] + [(w, n) for w in g.neighbors(v)])
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
            twinned = plant_true_twins(rng, g, rng.randint(1, 4))
            # A true twin never makes or breaks an odd hole or antihole.
            assert brute_is_perfect(twinned) == want
            assert inv.is_perfect(twinned) == want
            seen.add(want)
    assert seen == {True, False}


def test_twin_reduced_perfectness_matches_unreduced_search_on_catalog(catalog_pairs):
    for G, H in catalog_pairs:
        g = nsb_power_graph(G, H).graph
        unreduced = not inv._has_odd_hole(g) and not inv._has_odd_hole(g.complement())
        assert inv.is_perfect(g) == unreduced


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


# --- degree formula ------------------------------------------------------------


def test_degree_formula_anchors():
    Z6 = grp("Z6")
    assert inv.degree_in_power_graph_formula(Z6)[2] == 4
    Z5 = grp("Z5")
    assert all(inv.degree_in_power_graph_formula(Z5)[v] == 4 for v in range(1, 5))
    for n in [2, 3, 6, 8, 12]:
        G = grp(f"Z{n}")
        assert inv.degree_in_power_graph_formula(G)[0] == n - 1


@pytest.mark.parametrize("text", ["Z6", "Z12", "Z24", "D4", "D6", "Q8", "S3", "S4", "E(2,3)"])
def test_degree_formula_matches_actual_degrees(text):
    G = grp(text)
    pg = power_graph(G)
    for v in G.elements():
        assert inv.degree_in_power_graph_formula(G)[v] == pg.degree(v)


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
