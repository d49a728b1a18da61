"""The sweep corpus: the six solver answers on every proper normal subgroup of SWEEP.

Run from the repository root to rewrite tests/sweep_values.json:

    PYTHONPATH=src python tests/sweep_values.py

The file maps each group spec to its subgroup indices (as `--subgroup-index`
numbers them), and each index to the values of FIELDS at default budgets,
null where a solver refuses. It holds values only, no witnesses.
tests/test_sweep.py recomputes every value and compares.
"""

import json
import sys
from pathlib import Path

from nspg.groups import make_group, parse_group_spec
from nspg.invariants import compute_invariants
from nspg.power_graphs import nsb_power_graph
from nspg.subgroups import all_normal_subgroups

VALUES = Path(__file__).resolve().parent / "sweep_values.json"
SWEEP = (
    "S4", "D8", "Q8xZ3", "S3xZ6", "D6xZ3", "Z2xS4", "Q8xQ8", "E(2,5)", "D10xZ6",
    "S3xS3xZ3", "Z4xZ4xZ2", "D12", "Q8xZ4", "E(3,3)", "Z24xZ2", "S5", "D16xZ2",
)
FIELDS = ("clique_number", "chromatic_number", "vertex_connectivity", "is_planar", "is_perfect", "is_hamiltonian")


def instances(spec: str, part: int = 0, parts: int = 1):
    """(subgroup index, Γ_H(G)) for each proper normal subgroup H of the group
    spec names whose index is part modulo parts."""
    G = make_group(parse_group_spec(spec))
    for i, H in enumerate(all_normal_subgroups(G)):
        if H.order < G.order and i % parts == part:
            yield i, nsb_power_graph(G, H).graph


def values(spec: str, part: int = 0, parts: int = 1) -> dict[str, list]:
    """FIELDS for each instance of instances(spec, part, parts), keyed by index;
    a graph met twice is solved once."""
    solved = {}
    out = {}
    for i, g in instances(spec, part, parts):
        if g.rows not in solved:
            inv = compute_invariants(g)
            solved[g.rows] = [getattr(inv, field) for field in FIELDS]
        out[str(i)] = solved[g.rows]
    return out


def main() -> int:
    groups = [
        f" {json.dumps(spec)}: {{\n"
        + ",\n".join(f"  {json.dumps(i)}: {json.dumps(v)}" for i, v in values(spec).items())
        + "\n }"
        for spec in SWEEP
    ]
    VALUES.write_text("{\n" + ",\n".join(groups) + "\n}\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
