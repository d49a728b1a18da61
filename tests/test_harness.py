import json

import pytest

import nspg.harness as harness
import nspg.invariants as inv
import nspg.groups as groups
from nspg.groups import FiniteGroup, from_cayley_table, make_group, parse_group_spec
from nspg.harness import (
    Budgets,
    Catalog,
    CatalogEntry,
    TheoremId,
    check_theorem,
    default_catalog,
    parse_catalog_json,
    resolve_catalog,
    run_catalog,
)
from nspg.power_graphs import nsb_power_graph, power_graph
from nspg.subgroups import all_normal_subgroups, generated_subgroup, quotient


def grp(text):
    return make_group(parse_group_spec(text))


def instance(text, gens):
    G = grp(text)
    return G, generated_subgroup(G, gens)


def test_eulerian_anchor_z4():
    r = check_theorem(TheoremId.EULERIAN_4_2, *instance("Z4", [2]))
    assert r.verdict == "PASS"
    assert r.predicted is True and r.actual is True


def test_planar_anchor_z8():
    r = check_theorem(TheoremId.PLANAR_5_4, *instance("Z8", [2]))
    assert r.verdict == "PASS"
    assert r.predicted is False and r.actual is False  # |H| = 4 forces a K5


def test_kappa_anchor_is_flagged():
    r = check_theorem(TheoremId.KAPPA_6_7, *instance("Z4", [2]))
    assert r.verdict == "FLAGGED"
    assert r.predicted == 1 and r.actual == 2
    assert r.note == "complete"


def test_complete_anchors():
    r = check_theorem(TheoremId.COMPLETE_3_1, *instance("Z6", [3]))
    assert r.verdict == "PASS" and r.actual is True
    r = check_theorem(TheoremId.COMPLETE_3_1, *instance("Z12", [6]))
    assert r.verdict == "PASS" and r.actual is False


def test_hypothesis_skips_for_trivial_subgroup():
    proper = "hypothesis requires a nontrivial proper subgroup"
    skips = {
        TheoremId.GIRTH_5_3: proper,
        TheoremId.BIPARTITE_TREE_5_2: proper,
        TheoremId.PLANAR_5_4: proper,
        TheoremId.EDGES_6_1: "hypothesis requires a nontrivial subgroup",
    }
    for tid in TheoremId:
        r = check_theorem(tid, *instance("Z6", []))
        if tid in skips:
            assert r.verdict == "SKIPPED"
            assert not r.hypothesis_met
            assert r.predicted is None and r.actual is None
            assert r.note == skips[tid]
        else:
            assert r.verdict != "SKIPPED" and r.hypothesis_met


def test_budget_exhaustion_skips_with_reason():
    r = check_theorem(TheoremId.CLIQUE_6_4, *instance("Z12", [6]), budgets=Budgets(exact_solver=4))
    assert r.verdict == "SKIPPED"
    assert r.hypothesis_met
    assert r.predicted is None and r.actual is None
    assert r.note == "budget exceeded: clique_number: 6 vertices exceeds budget 4"


def test_only_kappa_rows_carry_a_completeness_note(default_report):
    complete = {
        (r.group, r.subgroup): r.actual for r in default_report.results if r.theorem == "COMPLETE_3_1"
    }
    for r in default_report.results:
        if r.theorem == "KAPPA_6_7":
            assert r.note == ("complete" if complete[r.group, r.subgroup] else "non-complete")
        elif r.hypothesis_met:
            assert r.note == ""


def test_empty_catalog_gives_empty_report():
    report = run_catalog(Catalog(entries=()))
    assert report.results == ()
    assert report.instance_count == 0
    assert not report.has_fail()


def test_single_instance_catalog_runs_all_thirteen():
    cat = Catalog(entries=(CatalogEntry("Z4", ("2",)),))
    report = run_catalog(cat)
    assert report.instance_count == 1
    assert len(report.results) == 13
    assert [r.theorem for r in report.results] == [t.value for t in TheoremId]
    edges = next(r for r in report.results if r.theorem == "EDGES_6_1")
    assert edges.predicted == 3 and edges.actual == 3 and edges.verdict == "PASS"


def test_default_catalog_contents(catalog_pairs):
    names = {(G.name, H.elements) for G, H in catalog_pairs}
    assert ("Z4", (0, 2)) in names
    assert ("Z6", (0,)) in names  # the power-graph regression surface
    s3_subs = {H.elements for G, H in catalog_pairs if G.name == "S3"}
    assert s3_subs == {(0,), (0, 3, 4)}  # trivial and the rotation subgroup only
    assert len(catalog_pairs) >= 50
    for G, H in catalog_pairs:
        assert H.is_normal and H.order < G.order


def test_report_has_every_theorem_once_per_instance(default_report):
    per_instance = {}
    for r in default_report.results:
        per_instance.setdefault((r.group, r.subgroup), []).append(r.theorem)
    for theorems in per_instance.values():
        assert theorems == [t.value for t in TheoremId]


def test_catalog_run_is_deterministic(default_report):
    again = run_catalog(default_catalog())
    assert again.to_json() == default_report.to_json()
    assert again.to_csv() == default_report.to_csv()


def test_report_aggregation(default_report):
    counts = default_report.counts()
    for tid in TheoremId:
        block = counts[tid.value]
        assert sum(block.values()) == default_report.instance_count
        assert block["fail"] == 0
    assert not default_report.has_fail()
    non_pass = default_report.non_pass()
    assert all(r.verdict != "PASS" for r in non_pass)
    kappa = default_report.kappa_breakdown()
    assert kappa["flagged_total"] == kappa["flagged_complete"] + kappa["flagged_non_complete"]
    assert kappa["flagged_total"] > 0  # complete instances disagree with the formula


def test_report_serializations(default_report):
    obj = default_report.to_json_obj()
    assert set(obj) == {"instances", "summary", "kappa_connectivity", "non_pass", "results"}
    json.dumps(obj)  # must be JSON-serializable as-is
    keys = ["theorem", "group", "subgroup", "hypothesis_met", "predicted", "actual", "verdict", "note"]
    assert all(list(row) == keys for row in obj["results"])
    assert list(obj["non_pass"][0]) == ["theorem", "group", "subgroup", "verdict"]
    csv_text = default_report.to_csv()
    header, *rows = csv_text.splitlines()
    assert header == "theorem,group,subgroup,hypothesis_met,predicted,actual,verdict"
    assert len(rows) == len(default_report.results)


def test_degree_results_carry_vectors(default_report):
    rows = [r for r in default_report.results if r.theorem == "DEGREE_4_1"]
    assert rows and all(r.verdict == "PASS" for r in rows)
    sample = rows[0]
    assert set(sample.predicted) == {"power_graph", "nsb"}
    assert sample.predicted == sample.actual


def test_cayley_restatement_consistency(default_report):
    for r in default_report.results:
        if r.theorem == "CAYLEY_3_3":
            assert r.verdict == "PASS"
            assert r.predicted == r.actual  # regular iff complete


def test_parse_catalog_json_roundtrip():
    text = json.dumps(
        {
            "instances": [
                {"group": "Z4", "subgroups": ["2"]},
                {"group": "Z6", "subgroups": "all-normal"},
            ],
            "theorems": ["EULERIAN_4_2", "EDGES_6_1"],
        }
    )
    cat = parse_catalog_json(text)
    assert cat.theorems == (TheoremId.EULERIAN_4_2, TheoremId.EDGES_6_1)
    pairs = resolve_catalog(cat)
    assert [(G.name, H.elements) for G, H in pairs] == [
        ("Z4", (0, 2)),
        ("Z6", (0,)),
        ("Z6", (0, 3)),
        ("Z6", (0, 2, 4)),
    ]


def test_resolve_catalog_rejects_bad_selectors():
    with pytest.raises(ValueError):
        resolve_catalog(Catalog(entries=(CatalogEntry("S3", ("1",)),)))  # non-normal
    with pytest.raises(ValueError):
        resolve_catalog(Catalog(entries=(CatalogEntry("Z4", ("1",)),)))  # generates all of G


def test_run_catalog_with_selected_theorems():
    cat = Catalog(
        entries=(CatalogEntry("Z4", ("2",)), CatalogEntry("Z6", ("3",))),
        theorems=(TheoremId.EULERIAN_4_2,),
    )
    report = run_catalog(cat)
    assert len(report.results) == 2
    assert all(r.theorem == "EULERIAN_4_2" and r.verdict == "PASS" for r in report.results)


# Order 64 to 256: the large parent and quotient tables a run shares facts of.
LARGE_CATALOG = Catalog(
    entries=(
        CatalogEntry("Z256", ("128",)),
        CatalogEntry("E(2,8)", ("1,2,4,8,16,32,64",)),
        CatalogEntry("Z2xZ64", ("64",)),
        CatalogEntry("Q8xQ8", ("1",)),
    )
)
# Z6/<2> and S3/<3> have one table, as have Q8/<1> and D4/<2>; their labels differ.
SHARED_QUOTIENT_CATALOG = Catalog(
    entries=(
        CatalogEntry("Z6", ("2",)),
        CatalogEntry("S3", ("3",)),
        CatalogEntry("Q8", ("1",)),
        CatalogEntry("D4", ("2",)),
    )
)


@pytest.mark.parametrize(
    "cat, refuses",
    [
        pytest.param(default_catalog(), False, id="budgets0"),
        pytest.param(default_catalog(Budgets(exact_solver=6, odd_hole=6)), True, id="budgets1"),
        pytest.param(LARGE_CATALOG, True, id="large"),
        pytest.param(SHARED_QUOTIENT_CATALOG, False, id="shared-quotient-tables"),
    ],
)
def test_run_rows_equal_checks_with_a_fresh_context(cat, refuses):
    report = run_catalog(cat)
    fresh = [check_theorem(tid, G, H, cat.budgets) for G, H in resolve_catalog(cat) for tid in cat.theorems]
    assert list(report.results) == fresh
    budget_notes = [r.note for r in fresh if r.note.startswith("budget exceeded: ")]
    assert bool(budget_notes) == refuses


def test_shared_quotient_catalog_pairs_equal_tables_with_different_labels():
    quotients = [quotient(G, H).group for G, H in resolve_catalog(SHARED_QUOTIENT_CATALOG)]
    for first, second in (quotients[:2], quotients[2:]):
        assert first.table == second.table
        assert first.labels != second.labels


def test_default_run_solves_kappa_once_per_distinct_graph(monkeypatch, catalog_pairs):
    solved = []
    kappa = inv.vertex_connectivity

    def counting(g):
        solved.append(g.rows)
        return kappa(g)

    monkeypatch.setattr(inv, "vertex_connectivity", counting)
    run_catalog(default_catalog())
    distinct = set()
    for G, H in catalog_pairs:
        distinct.add(nsb_power_graph(G, H).graph.rows)
        distinct.add(power_graph(quotient(G, H).group).rows)
    assert len(solved) == len(set(solved)) == len(distinct)
    assert set(solved) == distinct
    assert len(distinct) < 2 * len(catalog_pairs)


def test_default_run_builds_each_shared_fact_once_per_distinct_key(monkeypatch, catalog_pairs):
    # A parent group's facts are keyed on its name, a quotient's on its table.
    def key(group):
        return group.table if "/" in group.name else group.name

    calls = {}
    for module, name in (
        (harness, "power_graph"),
        (harness, "recognize"),
        (harness.inv, "degree_in_power_graph_formula"),
    ):
        def counting(group, build=getattr(module, name), seen=calls.setdefault(name, [])):
            seen.append(key(group))
            return build(group)

        monkeypatch.setattr(module, name, counting)
    run_catalog(default_catalog())
    parents = {G.name for G, H in catalog_pairs}
    quotients = {quotient(G, H).group.table for G, H in catalog_pairs}
    assert (len(catalog_pairs), len(parents), len(quotients)) == (223, 42, 43)
    expected = {
        "power_graph": parents | quotients,
        "degree_in_power_graph_formula": parents | quotients,
        "recognize": quotients,
    }
    for name, keys in expected.items():
        assert len(calls[name]) == len(set(calls[name])), name
        assert set(calls[name]) == keys, name


def test_cayley_tables_are_validated_only_where_they_come_from_outside(monkeypatch):
    # Family and quotient tables are groups by construction (tests/test_groups.py
    # and tests/test_subgroups.py prove it for each one); only a foreign table is checked.
    validated = []
    validate = groups.validate_cayley_table

    def counting(table):
        validated.append(len(table))
        return validate(table)

    monkeypatch.setattr(groups, "validate_cayley_table", counting)
    quotients = 0
    for text in harness.DEFAULT_CATALOG_GROUPS:
        G = grp(text)
        for H in all_normal_subgroups(G):
            quotient(G, H)
            quotients += 1
    assert quotients == 223 + len(harness.DEFAULT_CATALOG_GROUPS) and validated == []
    assert run_catalog(default_catalog()).results and validated == []
    for text in ("Z1", "S3", "Q8xQ8"):
        from_cayley_table(grp(text).table)
    FiniteGroup("Z2", ((0, 1), (1, 0)), ("e", "a"))
    assert validated == [1, 6, 64, 2]
