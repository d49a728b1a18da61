"""The sweep corpus of tests/sweep_values.json: every recorded value recomputed,
and every distinct graph's planarity checked against networkx."""

import json

import pytest

import sweep_values
from nspg.invariants import is_planar

PARTS = 2  # each group's instances in two halves, so that no test takes long
RECORDED = json.loads(sweep_values.VALUES.read_text(encoding="utf-8"))


def test_the_corpus_holds_every_proper_normal_subgroup_of_the_sweep():
    assert list(RECORDED) == list(sweep_values.SWEEP)
    assert sum(map(len, RECORDED.values())) == 743
    assert all(len(v) == len(sweep_values.FIELDS) for group in RECORDED.values() for v in group.values())


@pytest.mark.parametrize("part", range(PARTS))
@pytest.mark.parametrize("spec", sweep_values.SWEEP)
def test_sweep_values_are_unchanged(spec, part):
    recorded = {i: v for i, v in RECORDED[spec].items() if int(i) % PARTS == part}
    assert sweep_values.values(spec, part, PARTS) == recorded


@pytest.mark.parametrize("spec", sweep_values.SWEEP)
def test_sweep_planarity_matches_networkx(spec):
    import networkx as nx  # a test oracle only, never a runtime dependency

    seen = set()
    for i, g in sweep_values.instances(spec):
        if g.rows in seen:
            continue
        seen.add(g.rows)
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges())
        assert is_planar(g) == nx.check_planarity(h)[0], (spec, i)
