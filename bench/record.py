"""Write the exact values the benchmark checks against (bench/expected/*.json).

    PYTHONPATH=src python3 bench/record.py

Each value is produced by the package at the current commit, twice where a
solver refuses for its budget: once as the CLI runs it (the "seed" output) and
once with every budget raised so the refused fields are filled in (the "truth").
Both runs must agree wherever both answer. kappa, the clique number and
planarity of every analyze-ladder graph are cross-checked against networkx,
which is needed here only; the benchmark itself uses the standard library.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import networkx as nx

import nspg
import nspg.cli
from nspg import invariants as inv
from nspg.harness import Budgets, parse_catalog_json, run_catalog

import workloads

RAISED = 10**6  # a vertex budget no instance here reaches


def require(ok: bool, what) -> None:
    if not ok:
        raise RuntimeError(f"inconsistent record: {what}")


def cli_output(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = nspg.cli.main(argv)
    return rc, out.getvalue()


def networkx_graph(graph_json: str) -> nx.Graph:
    data = json.loads(graph_json)
    g = nx.Graph()
    g.add_nodes_from(range(len(data["vertices"])))
    g.add_edges_from(data["edges"])
    return g


def record_ladder() -> dict:
    out = {}
    for spec, gens in workloads.LADDER:
        rc, text = cli_output(["analyze", spec, "--subgroup", gens])
        seed = json.loads(text)
        seed.pop("witnesses", None)
        refused = seed.pop("skipped", [])
        require(rc == (workloads.EXIT_BUDGET if refused else workloads.EXIT_OK), (spec, rc))

        G = nspg.make_group(nspg.parse_group_spec(spec))
        H = nspg.generated_subgroup(G, [int(tok) for tok in gens.split(",")])
        graph = nspg.nsb_power_graph(G, H).graph
        filled = inv.invariants_to_json_obj(inv.compute_invariants(graph, RAISED, RAISED))
        require("skipped" not in filled, spec)
        truth = {"group": seed["group"], "subgroup": seed["subgroup"]}
        truth.update({k: v for k, v in filled.items() if k != "witnesses"})
        require(seed.keys() == truth.keys(), spec)
        for key, value in seed.items():
            require(value is None and key in refused or value == truth[key], (spec, key))

        graph_json = nspg.graph_to_json(graph)
        g = networkx_graph(graph_json)
        require(nx.node_connectivity(g) == truth["vertex_connectivity"], spec)
        require(max(len(c) for c in nx.find_cliques(g)) == truth["clique_number"], spec)
        require(nx.check_planarity(g)[0] == truth["is_planar"], spec)
        out[workloads.ladder_key(spec, gens)] = {
            "graph_sha256": workloads.graph_digest(graph_json),
            "refused_at_seed": refused,
            "fields": truth,
        }
    return out


def record_normal_subgroups() -> dict:
    out = {}
    for spec in workloads.NORMAL_SUBGROUP_GROUPS:
        rc, text = cli_output(["list-normal-subgroups", spec])
        require(rc == workloads.EXIT_OK, spec)
        out[spec] = text.splitlines()
    return out


def record_verify_large() -> dict:
    catalog_text = json.dumps(workloads.LARGE_CATALOG)
    seed = run_catalog(parse_catalog_json(catalog_text)).to_csv().splitlines()
    truth = run_catalog(parse_catalog_json(catalog_text, Budgets(RAISED, RAISED))).to_csv().splitlines()
    require(len(seed) == len(truth), "row counts differ")
    for s, t in zip(seed, truth):
        require(s == t or s.endswith(",true,,,SKIPPED"), s)
    return {"truth": truth, "seed": seed}


def main() -> int:
    workloads.EXPECTED.mkdir(parents=True, exist_ok=True)
    for name, data in (
        ("analyze_ladder.json", record_ladder()),
        ("normal_subgroups.json", record_normal_subgroups()),
        ("verify_large.json", record_verify_large()),
    ):
        with open(workloads.EXPECTED / name, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1)
            fh.write("\n")
        print(f"wrote bench/expected/{name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
