"""Acceptance criteria: one test per criterion, each exact, printing a pass line."""

import json
import random
import time
from pathlib import Path

import nspg.invariants as inv
from nspg.cli import main
from nspg.groups import make_group, parse_group_spec
from nspg.power_graphs import (
    expand_quotient_graph,
    nsb_power_graph,
    power_graph,
)
from nspg.subgroups import generated_subgroup, quotient
from oracles import (
    brute_chromatic_number,
    brute_clique_number,
    brute_hamiltonian_exists,
    brute_vertex_connectivity,
    random_graph,
)

GOLDEN = Path(__file__).parent / "golden"


def grp(text):
    return make_group(parse_group_spec(text))


def instance(text, gens):
    G = grp(text)
    return G, generated_subgroup(G, gens)


def built(text, gens):
    return nsb_power_graph(*instance(text, gens)).graph


def rows_for(report, theorem):
    return [r for r in report.results if r.theorem == theorem]


def test_criterion_01_dual_construction_equivalence(catalog_pairs):
    start = time.monotonic()
    assert len(catalog_pairs) >= 50
    for G, H in catalog_pairs:
        direct = nsb_power_graph(G, H)
        expanded = expand_quotient_graph(quotient(G, H), H)
        assert direct.graph == expanded.graph, (G.name, H.describe())
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 01: PASS - dual construction identical on {len(catalog_pairs)} instances ({elapsed:.1f}s)")


def test_criterion_02_edge_count_formula(default_report):
    rows = rows_for(default_report, "EDGES_6_1")
    checked = [r for r in rows if r.hypothesis_met]
    assert checked and all(r.verdict == "PASS" for r in checked)
    assert all(r.verdict == "SKIPPED" for r in rows if not r.hypothesis_met)
    anchors = {("Z4", (2,)): 3, ("Z6", (3,)): 10, ("Z12", (6,)): 47, ("D4", (2,)): 9}
    for (text, gens), expected in anchors.items():
        assert built(text, gens).edge_count == expected
    print(f"\nACCEPTANCE 02: PASS - edge formula exact on {len(checked)} nontrivial instances")


def test_criterion_03_completeness_iff_cyclic_p_group(default_report):
    rows = rows_for(default_report, "COMPLETE_3_1")
    assert rows and all(r.verdict == "PASS" for r in rows)
    assert inv.is_complete(built("Z6", [3]))
    assert not inv.is_complete(built("Z12", [6]))
    print(f"\nACCEPTANCE 03: PASS - completeness criterion on {len(rows)} instances")


def test_criterion_04_eulerian_parity(default_report, catalog_pairs):
    rows = rows_for(default_report, "EULERIAN_4_2")
    assert rows and all(r.verdict == "PASS" for r in rows)
    regression = 0
    for G, H in catalog_pairs:
        if H.order == 1:
            assert inv.is_eulerian(power_graph(G)) == (G.order % 2 == 1)
            regression += 1
    assert regression >= 20
    print(f"\nACCEPTANCE 04: PASS - Eulerian parity on {len(rows)} instances, {regression} regressions")


def test_criterion_05_degree_formulas(default_report):
    rows = rows_for(default_report, "DEGREE_4_1")
    assert rows and all(r.verdict == "PASS" for r in rows)
    Z6 = grp("Z6")
    assert inv.degree_in_power_graph_formula(Z6)[2] == 4
    assert power_graph(Z6).degree(2) == 4
    print(f"\nACCEPTANCE 05: PASS - degree formulas exact on {len(rows)} instances")


def test_criterion_06_planarity_characterization(default_report):
    rows = [r for r in rows_for(default_report, "PLANAR_5_4") if r.hypothesis_met]
    assert rows and all(r.verdict == "PASS" for r in rows)
    assert inv.is_planar(built("D4", [2]))
    assert inv.is_planar(built("Z6", [2]))
    assert not inv.is_planar(built("Z8", [2]))
    assert not inv.is_planar(built("Z6", [3]))
    print(f"\nACCEPTANCE 06: PASS - planarity characterization on {len(rows)} instances")


def test_criterion_07_girth_three(default_report):
    rows = [r for r in rows_for(default_report, "GIRTH_5_3") if r.hypothesis_met]
    assert rows and all(r.verdict == "PASS" and r.actual == 3 for r in rows)
    print(f"\nACCEPTANCE 07: PASS - girth 3 on {len(rows)} nontrivial instances")


def test_criterion_08_clique_and_chromatic(default_report):
    clique_rows = rows_for(default_report, "CLIQUE_6_4")
    chrom_rows = rows_for(default_report, "CHROMATIC_6_6")
    assert clique_rows and all(r.verdict == "PASS" for r in clique_rows)
    assert chrom_rows and all(r.verdict == "PASS" for r in chrom_rows)
    g = built("Z12", [6])
    assert inv.clique_number(g)[0] == 9
    assert inv.chromatic_number(g)[0] == 9
    print(f"\nACCEPTANCE 08: PASS - clique and chromatic formulas on {len(clique_rows)} instances")


def test_criterion_09_perfectness(default_report, catalog_pairs):
    assert all(nsb_power_graph(G, H).graph.vertex_count <= 24 for G, H in catalog_pairs)
    rows = rows_for(default_report, "PERFECT_6_5")
    assert rows and all(r.verdict == "PASS" for r in rows)  # nothing skipped: all within budget
    print(f"\nACCEPTANCE 09: PASS - no odd holes in graph or complement on {len(rows)} instances")


def test_criterion_10_hamiltonian_implication(default_report):
    rows = rows_for(default_report, "HAMILTONIAN_4_4")
    assert rows and all(r.verdict == "PASS" for r in rows)
    lifted = [r for r in rows if r.predicted is True]
    assert lifted and all(r.actual is True for r in lifted)
    G, H = instance("D4", [2])
    assert inv.hamiltonian_cycle(nsb_power_graph(G, H).graph) is None
    assert inv.hamiltonian_cycle(power_graph(quotient(G, H).group)) is None
    print(f"\nACCEPTANCE 10: PASS - Hamiltonian implication on {len(rows)} instances ({len(lifted)} forced)")


def test_criterion_11_kappa_flagging(default_report):
    assert not default_report.has_fail()
    for tid in [
        "COMPLETE_3_1",
        "CAYLEY_3_3",
        "DEGREE_4_1",
        "EULERIAN_4_2",
        "HAMILTONIAN_4_4",
        "GIRTH_5_3",
        "BIPARTITE_TREE_5_2",
        "PLANAR_5_4",
        "EDGES_6_1",
        "CLIQUE_6_4",
        "PERFECT_6_5",
        "CHROMATIC_6_6",
    ]:
        assert all(r.verdict in ("PASS", "SKIPPED") for r in rows_for(default_report, tid))
    kappa = {(r.group, r.subgroup): r for r in rows_for(default_report, "KAPPA_6_7")}
    z4 = kappa[("Z4", "<2>")]
    assert z4.verdict == "FLAGGED" and z4.predicted == 1 and z4.actual == 2
    z12 = kappa[("Z12", "<6>")]
    assert z12.predicted == 5
    assert z12.actual == brute_vertex_connectivity(built("Z12", [6]))
    breakdown = default_report.kappa_breakdown()
    assert breakdown["flagged_total"] > 0
    print(
        "\nACCEPTANCE 11: PASS - kappa formula flagged on "
        f"{breakdown['flagged_complete']} complete / {breakdown['flagged_non_complete']} "
        "non-complete instances, zero FAIL verdicts"
    )


def test_criterion_12_small_graph_oracle_equivalence(catalog_pairs):
    start = time.monotonic()
    graphs = {}
    for G, H in catalog_pairs:
        nsb = nsb_power_graph(G, H)
        if nsb.graph.vertex_count <= 10:
            graphs[(nsb.graph.vertex_labels, nsb.graph.rows)] = nsb.graph
        qpg = power_graph(quotient(G, H).group)
        if qpg.vertex_count <= 10:
            graphs[(qpg.vertex_labels, qpg.rows)] = qpg
    rng = random.Random(19520810)
    randoms = [
        random_graph(rng, rng.randint(4, 10), rng.choice([0.2, 0.35, 0.5, 0.65, 0.8]))
        for _ in range(100)
    ]
    suite = list(graphs.values()) + randoms
    for g in suite:
        assert inv.clique_number(g)[0] == brute_clique_number(g)
        assert inv.chromatic_number(g)[0] == brute_chromatic_number(g)
        assert inv.vertex_connectivity(g)[0] == brute_vertex_connectivity(g)
        assert (inv.hamiltonian_cycle(g) is not None) == brute_hamiltonian_exists(g)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"\nACCEPTANCE 12: PASS - solvers match brute force on {len(graphs)} catalog + "
        f"{len(randoms)} random graphs ({elapsed:.1f}s)"
    )


def test_criterion_13_cli_golden_files(capsys):
    cases = [
        (["build", "Z4", "--subgroup", "2", "--format", "json"], "build_z4_subgroup2.json", 0),
        (["analyze", "Z6", "--subgroup", "3"], "analyze_z6_subgroup3.json", 0),
        (["verify", "--format", "csv"], "verify_default.csv", 0),
    ]
    for argv, filename, expected_code in cases:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == expected_code, argv
        golden = (GOLDEN / filename).read_text(encoding="utf-8")
        assert out == golden, f"output drifted from golden file {filename}"
    print("\nACCEPTANCE 13: PASS - CLI output byte-identical to golden files")
