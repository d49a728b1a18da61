"""Command-line front door: build graphs, compute invariants, run the verification catalog.

Group spec grammar (bit-exact):

    spec    := atom ("x" atom)*
    atom    := "Z" nat          cyclic group of order n
             | "D" nat          dihedral group with n rotations (order 2n, so D4 has order 8)
             | "S" nat          symmetric group on n letters (degree capped at 5)
             | "Q8"             the quaternion group of order 8
             | "E(" p "," k ")" elementary abelian group of order p^k (p prime)
    nat     := [0-9]+ with the family's positivity constraints

"x" builds direct products, e.g. Z2xZ4 or Z2xZ2xZ3. Any spec whose total
order exceeds 256 is rejected. Subgroups are addressed either by a
comma-separated generator list (--subgroup 1,4 means the subgroup those
elements generate) or by position in list-normal-subgroups output
(--subgroup-index 2); a group with more than 4096 normal subgroups is
refused. The environment variable NSPG_BUDGET overrides the vertex
budget of the clique, chromatic-number and Hamiltonicity solvers (default 64).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import invariants as inv
from .groups import FiniteGroup, make_group, parse_group_spec
from .harness import (
    Budgets,
    Catalog,
    DEFAULT_CATALOG_GROUPS,
    default_catalog,
    parse_catalog_json,
    run_catalog,
    select_subgroup,
    theorem_ids,
)
from .power_graphs import graph_to_dot, graph_to_json, nsb_power_graph, power_graph
from .subgroups import SubgroupSet, all_normal_subgroups

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _budgets_from_env() -> Budgets:
    raw = os.environ.get("NSPG_BUDGET")
    if raw is None:
        return Budgets()
    try:
        value = int(raw)
        if value < 1:
            raise ValueError
    except ValueError:
        raise ValueError(f"NSPG_BUDGET must be a positive integer, got {raw!r}")
    return Budgets(exact_solver=value)


def _group(spec_text: str) -> FiniteGroup:
    return make_group(parse_group_spec(spec_text))


def _subgroup(G: FiniteGroup, args: argparse.Namespace) -> SubgroupSet:
    if args.subgroup is not None:
        return select_subgroup(G, args.subgroup)
    subs = all_normal_subgroups(G)
    idx = args.subgroup_index
    if not 0 <= idx < len(subs):
        raise ValueError(f"subgroup index {idx} out of range; {G.name} has {len(subs)} normal subgroups")
    return subs[idx]


def _add_subgroup_flags(p: argparse.ArgumentParser) -> None:
    sel = p.add_mutually_exclusive_group(required=True)
    sel.add_argument("--subgroup", help="comma-separated generator element indices, e.g. 2 or 1,4")
    sel.add_argument("--subgroup-index", type=int, help="index into list-normal-subgroups output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nspg",
        description="Normal-subgroup-based power graphs: construction, exact invariants, verification.",
        epilog=(
            "Group specs: Z<n> cyclic, D<n> dihedral of order 2n, S<n> symmetric (n <= 5), "
            "Q8 quaternion, E(p,k) elementary abelian p^k, and x-products such as Z2xZ4. "
            "NSPG_BUDGET overrides the clique, chromatic and Hamiltonicity vertex budget."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-groups", help="print the default catalog group specs")

    p = sub.add_parser("list-normal-subgroups", help="enumerate normal subgroups of a group")
    p.add_argument("group")

    p = sub.add_parser("build", help="emit the subgroup-based power graph of (group, subgroup)")
    p.add_argument("group")
    _add_subgroup_flags(p)
    p.add_argument("--format", choices=["dot", "json"], default="json")

    p = sub.add_parser("power-graph", help="emit the power graph of a group")
    p.add_argument("group")
    p.add_argument("--format", choices=["dot", "json"], default="json")

    p = sub.add_parser("analyze", help="compute all graph invariants of (group, subgroup)")
    p.add_argument("group")
    _add_subgroup_flags(p)
    p.add_argument("--format", choices=["json", "table"], default="json")

    p = sub.add_parser("verify", help="run the theorem verification catalog")
    p.add_argument("--catalog", help="JSON catalog file overriding the default catalog")
    p.add_argument("--theorems", help="comma-separated theorem ids to run")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def _cmd_list_groups(_args: argparse.Namespace) -> int:
    for spec in DEFAULT_CATALOG_GROUPS:
        print(spec)
    return EXIT_OK


def _cmd_list_normal_subgroups(args: argparse.Namespace) -> int:
    G = _group(args.group)
    for i, H in enumerate(all_normal_subgroups(G)):
        print(f"[{i}] order={H.order} subgroup={H.describe()}")
    return EXIT_OK


def _emit_graph(graph, name: str, fmt: str) -> None:
    if fmt == "dot":
        sys.stdout.write(graph_to_dot(graph, name))
    else:
        sys.stdout.write(graph_to_json(graph))


def _cmd_build(args: argparse.Namespace) -> int:
    G = _group(args.group)
    H = _subgroup(G, args)
    _emit_graph(nsb_power_graph(G, H).graph, f"{G.name} mod {H.describe()}", args.format)
    return EXIT_OK


def _cmd_power_graph(args: argparse.Namespace) -> int:
    G = _group(args.group)
    _emit_graph(power_graph(G), G.name, args.format)
    return EXIT_OK


def _table_value(value) -> str:
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (list, tuple)):
        return json.dumps(list(value))
    return str(value)


def _cmd_analyze(args: argparse.Namespace) -> int:
    G = _group(args.group)
    H = _subgroup(G, args)
    budgets = _budgets_from_env()
    nsb = nsb_power_graph(G, H)
    result = inv.compute_invariants(
        nsb.graph, solver_budget=budgets.exact_solver, odd_hole_budget=budgets.odd_hole
    )
    obj = {"group": G.name, "subgroup": H.describe()}
    obj.update(inv.invariants_to_json_obj(result))
    if args.format == "json":
        sys.stdout.write(json.dumps(obj, indent=2) + "\n")
    else:
        rows = [(key, value) for key, value in obj.items() if key not in ("witnesses", "skipped")]
        rows += [("witness." + name, value) for name, value in sorted(obj.get("witnesses", {}).items())]
        width = max(len(key) for key, _ in rows) + 2
        for key, value in rows:
            print(f"{key.ljust(width)}{_table_value(value)}")
    return EXIT_BUDGET if result.skipped else EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    budgets = _budgets_from_env()
    if args.catalog is not None:
        try:
            with open(args.catalog, "r", encoding="utf-8") as fh:
                catalog = parse_catalog_json(fh.read(), budgets)
        except (OSError, ValueError) as exc:
            raise ValueError(f"cannot load catalog: {exc}")
    else:
        catalog = default_catalog(budgets)
    if args.theorems is not None:
        wanted = theorem_ids(args.theorems.split(","))
        catalog = Catalog(entries=catalog.entries, theorems=wanted, budgets=catalog.budgets)
    report = run_catalog(catalog)
    if args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json())
    return EXIT_FAIL if report.has_fail() else EXIT_OK


_COMMANDS = {
    "list-groups": _cmd_list_groups,
    "list-normal-subgroups": _cmd_list_normal_subgroups,
    "build": _cmd_build,
    "power-graph": _cmd_power_graph,
    "analyze": _cmd_analyze,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
