import contextlib

import pytest

from nspg.groups import FiniteGroup, euler_phi, from_cayley_table, make_group, parse_group_spec
from nspg.invariants import degree_in_power_graph_formula
from nspg.power_graphs import (
    SimpleGraph,
    expand_quotient_graph,
    graph_to_dot,
    graph_to_json,
    nsb_power_graph,
    power_graph,
)
from nspg.subgroups import all_normal_subgroups, generated_subgroup, quotient, recognize
from oracles import (
    closure,
    nsb_adjacent_literal,
    nsb_power_graph_brute,
    order_by_iteration,
    power_graph_brute,
    powers_by_table,
)


def grp(text):
    return make_group(parse_group_spec(text))


def instance(text, gens):
    G = grp(text)
    return G, generated_subgroup(G, gens)


def test_simple_graph_rejects_loops_and_duplicate_labels():
    with pytest.raises(ValueError):
        SimpleGraph(["a", "b"], [(0, 0)])
    with pytest.raises(ValueError):
        SimpleGraph(["a", "a"], [])
    for edge in [(0, 2), (-1, 0)]:
        with pytest.raises(ValueError, match=rf"^edge \({edge[0]}, {edge[1]}\) out of range$"):
            SimpleGraph(["a", "b"], [edge])


def test_simple_graph_rejects_an_empty_vertex_set():
    with pytest.raises(ValueError, match="at least one vertex"):
        SimpleGraph([], [])
    with pytest.raises(ValueError, match="at least one vertex"):
        SimpleGraph._from_rows([], [])


def test_rows_constructor_checks_count_loops_and_range():
    assert SimpleGraph._from_rows(["a", "b"], [0b10, 0b01]) == SimpleGraph(["a", "b"], [(0, 1)])
    with pytest.raises(ValueError, match="rows for"):
        SimpleGraph._from_rows(["a", "b"], [0b10])
    with pytest.raises(ValueError, match="loop"):
        SimpleGraph._from_rows(["a", "b"], [0b11, 0b01])
    with pytest.raises(ValueError, match="out of range"):
        SimpleGraph._from_rows(["a", "b"], [0b110, 0b01])
    with pytest.raises(ValueError, match="distinct"):
        SimpleGraph._from_rows(["a", "a"], [0, 0])


def test_power_graph_z2_is_k2():
    pg = power_graph(grp("Z2"))
    assert pg.edge_count == 1


def test_power_graph_z5_is_complete():
    pg = power_graph(grp("Z5"))
    assert pg.edge_count == 10


def test_power_graph_z6_edge_structure():
    pg = power_graph(grp("Z6"))
    assert pg.edge_count == 13
    non_adjacent = [
        (u, v) for u in range(6) for v in range(u + 1, 6) if not pg.has_edge(u, v)
    ]
    assert non_adjacent == [(2, 3), (3, 4)]


def test_edge_count_formula_matches_construction():
    # EDGES_6_1 reads t = |E(power graph)| as half the degree formula's sum.
    for text in ["Z1", "Z2", "Z6", "Z12", "Z24", "D4", "D6", "Q8", "S3", "S4", "E(2,3)", "Z2xZ6"]:
        G = grp(text)
        total = sum(degree_in_power_graph_formula(G))
        assert total % 2 == 0
        assert total // 2 == power_graph(G).edge_count


def test_edge_count_divisor_form_on_cyclic_groups():
    # For cyclic groups the element sum collapses to a divisor sum weighted by phi(d).
    for n in range(1, 25):
        G = grp(f"Z{n}")
        by_divisors = (
            sum(euler_phi(d) * (2 * d - euler_phi(d) - 1) for d in range(1, n + 1) if n % d == 0)
            // 2
        )
        assert sum(degree_in_power_graph_formula(G)) // 2 == by_divisors


@pytest.mark.parametrize("text", ["Z2", "Z6", "Z8", "D4", "Q8", "S3", "E(2,2)"])
def test_nsb_with_trivial_subgroup_equals_power_graph(text):
    G = grp(text)
    H = generated_subgroup(G, [])
    assert nsb_power_graph(G, H).graph == power_graph(G)


def test_nsb_z4_mod_two_is_triangle():
    G, H = instance("Z4", [2])
    nsb = nsb_power_graph(G, H)
    assert nsb.graph.vertex_count == 3
    assert nsb.graph.edge_count == 3
    assert nsb.graph.vertex_labels == ("0", "1", "3")


def test_nsb_d4_center_structure():
    G, H = instance("D4", [2])
    nsb = nsb_power_graph(G, H)
    g = nsb.graph
    assert g.vertex_count == 7
    assert g.edge_count == 9
    assert g.degree(0) == 6  # identity dominates
    # beyond the identity: three coset cliques of size 2, no cross-coset edges
    for i in range(1, 7):
        for j in range(i + 1, 7):
            same_coset = nsb.coset_of[i] == nsb.coset_of[j]
            assert g.has_edge(i, j) == same_coset


def test_nsb_rejects_degenerate_inputs():
    G = grp("Z4")
    with pytest.raises(ValueError):
        nsb_power_graph(G, generated_subgroup(G, [1]))  # H = G
    S3 = grp("S3")
    transposition = next(a for a in S3.elements() if order_by_iteration(S3.table, a) == 2)
    with pytest.raises(ValueError):
        nsb_power_graph(S3, generated_subgroup(S3, [transposition]))  # not normal


def test_expand_quotient_rejects_mismatched_provenance():
    G = grp("Z12")
    H4 = generated_subgroup(G, [4])
    H6 = generated_subgroup(G, [6])
    Q = quotient(G, H4)
    with pytest.raises(ValueError):
        expand_quotient_graph(Q, H6)


def test_expand_quotient_anchor_instances():
    G, H = instance("Z4", [2])
    assert expand_quotient_graph(quotient(G, H), H).graph == nsb_power_graph(G, H).graph
    G, H = instance("Z6", [3])
    g = expand_quotient_graph(quotient(G, H), H).graph
    assert g.vertex_count == 5 and g.edge_count == 10  # K5: quotient Z3 is a cyclic p-group
    G, H = instance("Z12", [6])
    g = expand_quotient_graph(quotient(G, H), H).graph
    assert g.vertex_count == 11 and g.edge_count == 47


def test_dual_construction_equivalence_sample():
    cases = [
        ("Z6", [2]),
        ("Z6", [3]),
        ("Z12", [6]),
        ("Z12", [4]),
        ("D4", [2]),
        ("D6", [2]),
        ("Q8", [1]),
        ("Q8", [2]),
        ("S4", [7, 16]),  # the Klein four-group of double transpositions
        ("E(2,3)", [1]),
        ("Z2xZ6", [1]),
    ]
    for text, gens in cases:
        G, H = instance(text, gens)
        direct = nsb_power_graph(G, H)
        expanded = expand_quotient_graph(quotient(G, H), H)
        assert direct.graph == expanded.graph
        assert direct.vertex_element == expanded.vertex_element
        assert direct.coset_of == expanded.coset_of


def assert_symmetric_and_loop_free(g):
    for u in range(g.vertex_count):
        assert not g.has_edge(u, u)
        assert all(g.has_edge(v, u) for v in g.neighbors(u))


def assert_row_builds_match_brute(G, H):
    """Both graphs against the pair-scanning builds, and Gamma_H(G) against the quotient blow-up."""
    pg = power_graph(G)
    assert pg == power_graph_brute(G)
    assert_symmetric_and_loop_free(pg)
    direct = nsb_power_graph(G, H)
    assert direct == nsb_power_graph_brute(G, H.elements)
    assert_symmetric_and_loop_free(direct.graph)
    Q = quotient(G, H)
    assert power_graph(Q.group) == power_graph_brute(Q.group)
    assert direct == expand_quotient_graph(Q, H)


# analyze-ladder and verify-large instances of the benchmark: rows past 64 bits.
LARGE_PAIRS = [
    ("Q8xQ8", [0]),
    ("E(2,5)", [0]),
    ("S5", [0]),
    ("D64", [2]),
    ("E(2,8)", [1, 2, 4, 8, 16, 32, 64]),
    ("Z256", [0]),
    ("Z256", [128]),
    ("Z2xZ64", [64]),
    ("Q8xQ8", [1]),
]


@pytest.mark.parametrize("text,gens", LARGE_PAIRS)
def test_row_builds_match_pair_scan_at_scale(text, gens):
    G, H = instance(text, gens)
    assert_row_builds_match_brute(G, H)


@pytest.mark.parametrize("text", ["Q8xQ8", "D32", "S4xZ2"])
def test_row_builds_match_pair_scan_on_every_normal_subgroup(text):
    G = grp(text)
    for H in all_normal_subgroups(G):
        if H.order < G.order:
            assert_row_builds_match_brute(G, H)


def test_nsb_adjacency_matches_literal_definition():
    for text, gens in [("Z6", [3]), ("Z6", [2]), ("Z12", [6]), ("D4", [2]), ("Q8", [2]), ("S3", [1, 2])]:
        G = grp(text)
        H = generated_subgroup(G, gens)
        if H.order == G.order or not H.is_normal:
            continue
        nsb = nsb_power_graph(G, H)
        g = nsb.graph
        for i in range(g.vertex_count):
            for j in range(i + 1, g.vertex_count):
                want = nsb_adjacent_literal(G, H.elements, nsb.vertex_element[i], nsb.vertex_element[j])
                assert g.has_edge(i, j) == want


def test_identity_degree_is_group_minus_subgroup(catalog_pairs):
    for G, H in catalog_pairs:
        nsb = nsb_power_graph(G, H)
        assert nsb.graph.degree(0) == G.order - H.order


def test_coset_clique_and_homogeneity_invariants(catalog_pairs):
    for G, H in catalog_pairs:
        nsb = nsb_power_graph(G, H)
        g = nsb.graph
        n = g.vertex_count
        pairs = {}
        for i in range(1, n):
            for j in range(i + 1, n):
                ci, cj = nsb.coset_of[i], nsb.coset_of[j]
                if ci == cj:
                    assert g.has_edge(i, j)  # cosets induce cliques
                else:
                    # homogeneity: adjacency across two cosets is all-or-nothing
                    pairs.setdefault((min(ci, cj), max(ci, cj)), set()).add(g.has_edge(i, j))
        assert all(len(v) == 1 for v in pairs.values()), (G.name, H.describe())


def test_every_instance_is_connected(catalog_pairs):
    import nspg.invariants as inv

    for G, H in catalog_pairs:
        assert inv.is_connected(nsb_power_graph(G, H).graph)


def test_monotone_consistency_with_quotient_adjacency(catalog_pairs):
    for G, H in catalog_pairs:
        nsb = nsb_power_graph(G, H)
        qpg = power_graph(quotient(G, H).group)
        g = nsb.graph
        for i in range(g.vertex_count):
            for j in range(i + 1, g.vertex_count):
                ci, cj = nsb.coset_of[i], nsb.coset_of[j]
                expected = ci == cj or qpg.has_edge(ci, cj)
                assert g.has_edge(i, j) == expected, (G.name, H.describe())


def test_exports_are_deterministic_and_exact():
    G, H = instance("Z4", [2])
    g = nsb_power_graph(G, H).graph
    assert graph_to_json(g) == graph_to_json(g)
    assert graph_to_dot(g, "Z4 mod <2>") == (
        'graph "Z4 mod <2>" {\n'
        '  0 [label="0"];\n'
        '  1 [label="1"];\n'
        '  2 [label="3"];\n'
        "  0 -- 1;\n"
        "  0 -- 2;\n"
        "  1 -- 2;\n"
        "}\n"
    )
    obj_lines = graph_to_json(g)
    assert '"vertices"' in obj_lines and '"edges"' in obj_lines


def test_dot_doubles_a_trailing_backslash_in_a_label():
    G = from_cayley_table([[0, 1], [1, 0]], labels=["e", "x\\"])
    dot = 'graph "G" {\n  0 [label="e"];\n  1 [label="x\\\\"];\n  0 -- 1;\n}\n'
    assert graph_to_dot(power_graph(G)) == dot


def test_dot_doubles_a_trailing_backslash_in_the_name():
    g = SimpleGraph(['say "hi"'], [])
    assert graph_to_dot(g, 'a "b"\\') == 'graph "a \'b\'\\\\" {\n  0 [label="say \'hi\'"];\n}\n'


def test_edges_listing_is_sorted():
    g = SimpleGraph(["a", "b", "c", "d"], [(2, 3), (0, 3), (0, 1)])
    assert g.edges() == [(0, 1), (0, 3), (2, 3)]


@pytest.mark.parametrize("text, central", [("Z256", 128), ("Z2xZ64", 64), ("Q8xQ8", 1), ("E(2,8)", 1)])
def test_the_graph_layers_walk_each_element_at_most_once(monkeypatch, text, central):
    # Every pair cyclic_classes hands back for G is kept, so a pair made twice
    # shows up as two objects, whatever the ids of freed tuples.
    G, H = instance(text, [central])
    assert H.is_normal and 1 < H.order < G.order
    returned = []
    classes = FiniteGroup.cyclic_classes

    def counted(self):
        out = classes(self)
        if self is G:
            returned.append(out)
        return out

    monkeypatch.setattr(FiniteGroup, "cyclic_classes", counted)
    # E(2,8)'s enumeration reads the cyclic classes before it refuses.
    refused = pytest.raises(ValueError, match="more than 4096") if text == "E(2,8)" else contextlib.nullcontext()
    reads = []
    for layer in (power_graph, lambda G: nsb_power_graph(G, H), degree_in_power_graph_formula, recognize):
        layer(G)
        reads.append(len(returned))
    with refused:
        all_normal_subgroups(G)
    reads.append(len(returned))
    assert all(a < b for a, b in zip([0] + reads, reads))  # each of the five layers reads the classes
    assert len({id(out) for out in returned}) == 1  # one pair, made once
    # One walk per cyclic subgroup, from the smallest element generating it.
    _, walks = returned[0]
    spans = [closure(G, {a}) for a in G.elements()]
    assert len(walks) == len(set(spans))
    assert [walk[0] for walk in walks] == sorted({spans.index(span) for span in spans})
    assert all(walk == powers_by_table(G.table, walk[0]) for walk in walks)


def _blocks(keys) -> dict:
    """The indices of keys grouped by value, in order of each value's first index."""
    blocks: dict = {}
    for a, key in enumerate(keys):
        blocks.setdefault(key, []).append(a)
    return blocks


def test_cyclic_classes_split_the_elements_by_the_subgroup_they_generate(catalog_pairs):
    groups = {G.name: G for G, _ in catalog_pairs} | {text: grp(text) for text, _ in LARGE_PAIRS}
    for G in groups.values():
        class_of, walks = G.cyclic_classes()
        by_class = _blocks(class_of)
        # class_of[a] == class_of[b] iff <a> == <b>
        spans = (frozenset(powers_by_table(G.table, a)) for a in G.elements())
        assert list(by_class.values()) == list(_blocks(spans).values())
        assert list(by_class) == list(range(len(walks)))  # numbered by smallest member
        assert all(walks[c] == powers_by_table(G.table, members[0]) for c, members in by_class.items()), G.name
        assert G.cyclic_classes() is G.cyclic_classes()
