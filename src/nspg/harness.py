"""Per-theorem verification: closed-form predictions checked against the exact solvers."""

from __future__ import annotations

import csv
import enum
import io
import json
import math
from functools import cached_property
from typing import NamedTuple

from . import invariants as inv
from .groups import FiniteGroup, make_group, parse_group_spec, shown
from .power_graphs import NSBPowerGraph, nsb_power_graph, power_graph
from .subgroups import (
    QuotientGroup,
    SubgroupSet,
    all_normal_subgroups,
    quotient,
    recognize,
    select_subgroup,
)


class TheoremId(enum.Enum):
    COMPLETE_3_1 = "COMPLETE_3_1"
    CAYLEY_3_3 = "CAYLEY_3_3"
    DEGREE_4_1 = "DEGREE_4_1"
    EULERIAN_4_2 = "EULERIAN_4_2"
    HAMILTONIAN_4_4 = "HAMILTONIAN_4_4"
    GIRTH_5_3 = "GIRTH_5_3"
    BIPARTITE_TREE_5_2 = "BIPARTITE_TREE_5_2"
    PLANAR_5_4 = "PLANAR_5_4"
    EDGES_6_1 = "EDGES_6_1"
    CLIQUE_6_4 = "CLIQUE_6_4"
    PERFECT_6_5 = "PERFECT_6_5"
    CHROMATIC_6_6 = "CHROMATIC_6_6"
    KAPPA_6_7 = "KAPPA_6_7"


PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"
FLAGGED = "FLAGGED"

# Report-only checks record disagreement as FLAGGED instead of FAIL.
REPORT_ONLY = frozenset({TheoremId.KAPPA_6_7})


class InstanceResult(NamedTuple):
    theorem: str
    group: str
    subgroup: str
    hypothesis_met: bool
    predicted: object
    actual: object
    verdict: str
    note: str = ""


class Budgets(NamedTuple):
    exact_solver: int = inv.DEFAULT_SOLVER_BUDGET
    odd_hole: int = inv.DEFAULT_ODD_HOLE_BUDGET


class CatalogEntry(NamedTuple):
    group: str
    subgroups: object = "all-normal"  # "all-normal" or a tuple of generator-list strings


class Catalog(NamedTuple):
    entries: tuple[CatalogEntry, ...]
    theorems: tuple[TheoremId, ...] = tuple(TheoremId)
    budgets: Budgets = Budgets()


DEFAULT_CATALOG_GROUPS: tuple[str, ...] = (
    tuple(f"Z{n}" for n in range(1, 25))
    + tuple(f"D{n}" for n in range(2, 9))
    + ("E(2,1)", "E(2,2)", "E(2,3)", "E(2,4)", "E(3,2)")
    + ("Z2xZ4", "Z2xZ6", "Z3xZ3", "Z4xZ4")
    + ("Q8", "S3", "S4")
)


def default_catalog(budgets: Budgets = Budgets()) -> Catalog:
    """Every stock test group, each paired with all of its proper normal subgroups."""
    return Catalog(
        entries=tuple(CatalogEntry(g, "all-normal") for g in DEFAULT_CATALOG_GROUPS),
        theorems=tuple(TheoremId),
        budgets=budgets,
    )


def parse_catalog_json(text: str, budgets: Budgets = Budgets()) -> Catalog:
    """Catalog file schema: {"instances": [{"group": str, "subgroups": ...}], "theorems": [...]}."""
    try:
        data = json.loads(text)
    except RecursionError:  # the decoder recurses once per nested array or object
        raise ValueError("catalog JSON is nested too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("catalog must be a JSON object")
    _check_keys(data, ("instances", "theorems"))
    if "instances" not in data:
        raise ValueError("missing 'instances'")
    items = data["instances"]
    if not isinstance(items, list) or not all(isinstance(item, dict) for item in items):
        raise ValueError("catalog 'instances' must be a list of objects")
    if not items:
        raise ValueError("'instances' is empty; a catalog needs at least one instance")
    entries = []
    for i, item in enumerate(items):
        if "group" not in item:
            raise ValueError(f"instance {i} has no 'group'")
        group = item["group"]
        if not isinstance(group, str):
            raise ValueError(
                f"instance {i}: 'group' must be a spec string such as \"Z2xZ4\","
                f" got {shown(json.dumps(group), str)}"
            )
        try:
            parse_group_spec(group).group_order()
            _check_keys(item, ("group", "subgroups"))
            subs = item.get("subgroups", "all-normal")
            if subs != "all-normal":
                if not isinstance(subs, list):
                    raise ValueError(
                        f"'subgroups' must be \"all-normal\" or a list, got {shown(repr(subs), str)}"
                    )
                if not subs:
                    raise ValueError(
                        "'subgroups' is empty; leave it out to run every proper normal subgroup"
                    )
                bad = [s for s in subs if not isinstance(s, str)]
                if bad:
                    raise ValueError(
                        "'subgroups' must list selector strings such as \"1,4\","
                        f" got {shown(json.dumps(bad[0]), str)}"
                    )
                subs = tuple(subs)
        except ValueError as exc:
            raise ValueError(f"instance {i} ({shown(group, str)}): {exc}") from None
        entries.append(CatalogEntry(group, subs))
    theorems = tuple(TheoremId)  # an absent "theorems" runs all thirteen
    if "theorems" in data:
        names = data["theorems"]
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise ValueError(f"'theorems' must be a list of strings, got {shown(repr(names), str)}")
        if not names:
            raise ValueError("'theorems' is empty; leave it out to run every theorem")
        theorems = theorem_ids(names)
    return Catalog(entries=tuple(entries), theorems=theorems, budgets=budgets)


def _check_keys(obj: dict, valid: tuple[str, ...]) -> None:
    """Refuse a key the schema does not know: a misspelt one would silently run the default."""
    for key in obj:
        if key not in valid:
            raise ValueError(f"unknown key {shown(key)}; valid keys: {', '.join(map(repr, valid))}")


def theorem_ids(names) -> tuple[TheoremId, ...]:
    """The theorems named, as --theorems and a catalog's "theorems" list give them."""
    valid = [t.value for t in TheoremId]
    seen = set()
    for name in names:
        if name not in valid:
            raise ValueError(f"unknown theorem id {shown(name)}; valid ids: {','.join(valid)}")
        if name in seen:
            raise ValueError(f"duplicate theorem id {shown(name)}")
        seen.add(name)
    return tuple(TheoremId(name) for name in names)


def resolve_catalog(cat: Catalog) -> list[tuple[FiniteGroup, SubgroupSet]]:
    """Concrete (group, normal subgroup) pairs, in deterministic catalog order. An
    entry's ValueError names the entry, as the loader's do."""
    out: list[tuple[FiniteGroup, SubgroupSet]] = []
    for i, entry in enumerate(cat.entries):
        try:
            G = make_group(parse_group_spec(entry.group))
            if entry.subgroups == "all-normal":
                for H in all_normal_subgroups(G):
                    if H.order < G.order:
                        out.append((G, H))
            else:
                for selector in entry.subgroups:
                    out.append((G, select_subgroup(G, selector)))
        except ValueError as exc:
            raise ValueError(f"instance {i} ({shown(entry.group, str)}): {exc}") from None
    return out


class InstanceContext:
    """Caches the per-instance artifacts shared by several theorem checks; ``run_cache``
    holds what every instance of one run shares, each fact built once per key by
    ``_shared``. A group's facts are keyed on ``G.name`` (a run builds its groups from
    their specs, so the name fixes the table), a quotient's on its table as bytes, and
    solver answers and graph invariants on adjacency rows. Nothing is keyed on
    ``G.table``: a tuple does not cache its hash, so every lookup would hash all
    65,536 entries of Z256's table again."""

    def __init__(self, G: FiniteGroup, H: SubgroupSet, budgets: Budgets, run_cache: dict | None = None):
        self.G = G
        self.H = H
        self.subgroup = H.describe()
        self.budgets = budgets
        self._run_cache = run_cache if run_cache is not None else {}

    def _shared(self, key, build, *args):
        """``build(*args)``, once per key in a run. Every key starts with ``build`` as
        the caller names it at call time, so a wrapper bound in its place sees every
        real build. A BudgetExceeded propagates uncached, so a later call refuses again."""
        if key not in self._run_cache:
            self._run_cache[key] = build(*args)
        return self._run_cache[key]

    def group_fact(self, build):
        """``build(G)``, once per group name in a run."""
        return self._shared((build, self.G.name), build, self.G)

    def quotient_fact(self, build):
        """``build(G/H)``, once per quotient table in a run: labels change no value the
        checks read, so quotients with equal tables share their facts."""
        return self._shared((build, self._quotient_key), build, self.quotient.group)

    def solve(self, solver, g, *args):
        """``solver(g, *args)``, once per distinct graph and arguments in a run.

        Keyed on the rows: labels change no value the checks read."""
        return self._shared((solver, g.rows, *args), solver, g, *args)

    @cached_property
    def nsb(self) -> NSBPowerGraph:
        return nsb_power_graph(self.G, self.H)

    @property
    def graph(self):
        return self.nsb.graph

    @cached_property
    def quotient(self) -> QuotientGroup:
        return quotient(self.G, self.H)

    @cached_property
    def _quotient_key(self) -> bytes:
        return b"".join(map(bytes, self.quotient.group.table))


class Claim(NamedTuple):
    """What one check states about one instance; only KAPPA fills ``note``."""

    predicted: object
    actual: object
    ok: bool
    note: str = ""


def _check_complete(ctx: InstanceContext) -> Claim:
    predicted = ctx.quotient_fact(recognize).is_cyclic_p_group_or_trivial
    actual = ctx.solve(inv.is_complete, ctx.graph)
    return Claim(predicted, actual, predicted == actual)


def _check_cayley(ctx: InstanceContext) -> Claim:
    # Restated form: the graph is regular iff it is complete.
    predicted = ctx.solve(inv.is_complete, ctx.graph)
    actual = ctx.solve(inv.is_regular, ctx.graph)
    return Claim(predicted, actual, predicted == actual)


def _check_degree(ctx: InstanceContext) -> Claim:
    formula_pg = list(ctx.group_fact(inv.degree_in_power_graph_formula))
    actual_pg = list(map(int.bit_count, ctx.group_fact(power_graph).rows))
    h = ctx.H.order
    formula_q = ctx.quotient_fact(inv.degree_in_power_graph_formula)
    projection = ctx.quotient.projection
    formula_nsb = [h * formula_q[projection[a]] for a in ctx.nsb.vertex_element]
    g = ctx.graph
    actual_nsb = [g.degree(i) for i in range(g.vertex_count)]
    predicted = {"power_graph": formula_pg, "nsb": formula_nsb}
    actual = {"power_graph": actual_pg, "nsb": actual_nsb}
    return Claim(predicted, actual, predicted == actual)


def _check_eulerian(ctx: InstanceContext) -> Claim:
    predicted = (ctx.G.order - ctx.H.order) % 2 == 0
    actual = ctx.solve(inv.is_eulerian, ctx.graph)
    return Claim(predicted, actual, predicted == actual)


def _check_hamiltonian(ctx: InstanceContext) -> Claim:
    budget = ctx.budgets.exact_solver
    predicted = ctx.solve(inv.hamiltonian_cycle, ctx.quotient_fact(power_graph), budget) is not None
    actual = ctx.solve(inv.hamiltonian_cycle, ctx.graph, budget) is not None
    # One-directional: a Hamiltonian quotient power graph forces a Hamiltonian graph.
    return Claim(predicted, actual, (not predicted) or actual)


def _check_girth(ctx: InstanceContext) -> Claim:
    actual = ctx.solve(inv.girth, ctx.graph)
    return Claim(3, actual, actual == 3)


def _check_bipartite_tree(ctx: InstanceContext) -> Claim:
    # Every tree is bipartite, so "bipartite or a tree" is "bipartite".
    actual = ctx.solve(inv.is_bipartite, ctx.graph)
    return Claim(False, actual, actual is False)


def _check_planar(ctx: InstanceContext) -> Claim:
    predicted = ctx.H.order in (2, 3) and ctx.quotient_fact(recognize).is_elementary_abelian_2
    actual = ctx.solve(inv.is_planar, ctx.graph)
    return Claim(predicted, actual, predicted == actual)


def _check_edges(ctx: InstanceContext) -> Claim:
    # t = |E(Γ(G/H))|, half the degree sum of the quotient's power graph.
    t = sum(ctx.quotient_fact(inv.degree_in_power_graph_formula)) // 2
    n = ctx.quotient.group.order
    h = ctx.H.order
    predicted = (t - n + 1) * h * h + math.comb(h, 2) * (n - 1) + (ctx.G.order - h)
    actual = ctx.graph.edge_count
    return Claim(predicted, actual, predicted == actual)


def _clique_prediction(ctx: InstanceContext) -> int:
    """|H|(m - 1) + 1, m the quotient power graph's clique number: both ω and χ."""
    m = ctx.solve(inv.clique_number, ctx.quotient_fact(power_graph), ctx.budgets.exact_solver)[0]
    return ctx.H.order * (m - 1) + 1


def _check_clique(ctx: InstanceContext) -> Claim:
    predicted = _clique_prediction(ctx)
    actual = ctx.solve(inv.clique_number, ctx.graph, ctx.budgets.exact_solver)[0]
    return Claim(predicted, actual, predicted == actual)


def _check_perfect(ctx: InstanceContext) -> Claim:
    actual = ctx.solve(inv.is_perfect, ctx.graph, ctx.budgets.odd_hole)
    return Claim(True, actual, actual is True)


def _check_chromatic(ctx: InstanceContext) -> Claim:
    predicted = _clique_prediction(ctx)
    actual = ctx.solve(inv.chromatic_number, ctx.graph, ctx.budgets.exact_solver)[0]
    return Claim(predicted, actual, predicted == actual)


def _check_kappa(ctx: InstanceContext) -> Claim:
    k = ctx.solve(inv.vertex_connectivity, ctx.quotient_fact(power_graph))[0]
    predicted = ctx.H.order * (k - 1) + 1
    actual = ctx.solve(inv.vertex_connectivity, ctx.graph)[0]
    note = "complete" if ctx.solve(inv.is_complete, ctx.graph) else "non-complete"
    return Claim(predicted, actual, predicted == actual, note)


_CHECKS = {
    TheoremId.COMPLETE_3_1: _check_complete,
    TheoremId.CAYLEY_3_3: _check_cayley,
    TheoremId.DEGREE_4_1: _check_degree,
    TheoremId.EULERIAN_4_2: _check_eulerian,
    TheoremId.HAMILTONIAN_4_4: _check_hamiltonian,
    TheoremId.GIRTH_5_3: _check_girth,
    TheoremId.BIPARTITE_TREE_5_2: _check_bipartite_tree,
    TheoremId.PLANAR_5_4: _check_planar,
    TheoremId.EDGES_6_1: _check_edges,
    TheoremId.CLIQUE_6_4: _check_clique,
    TheoremId.PERFECT_6_5: _check_perfect,
    TheoremId.CHROMATIC_6_6: _check_chromatic,
    TheoremId.KAPPA_6_7: _check_kappa,
}

# Theorems whose hypothesis excludes H = {e}, with the note their skipped rows carry.
_TRIVIAL_SUBGROUP_SKIPS = {
    TheoremId.GIRTH_5_3: "hypothesis requires a nontrivial proper subgroup",
    TheoremId.BIPARTITE_TREE_5_2: "hypothesis requires a nontrivial proper subgroup",
    TheoremId.PLANAR_5_4: "hypothesis requires a nontrivial proper subgroup",
    TheoremId.EDGES_6_1: "hypothesis requires a nontrivial subgroup",
}


def _run_check(tid: TheoremId, ctx: InstanceContext) -> InstanceResult:
    """The one place a claim becomes a row: hypothesis skip, budget skip, or a verdict."""
    predicted = actual = None
    verdict = SKIPPED
    note = _TRIVIAL_SUBGROUP_SKIPS.get(tid) if ctx.H.order == 1 else None
    hypothesis_met = note is None
    if hypothesis_met:
        try:
            predicted, actual, ok, note = _CHECKS[tid](ctx)
        except inv.BudgetExceeded as exc:
            note = f"budget exceeded: {exc}"
        else:
            verdict = PASS if ok else FLAGGED if tid in REPORT_ONLY else FAIL
    return InstanceResult(
        tid.value, ctx.G.name, ctx.subgroup, hypothesis_met, predicted, actual, verdict, note
    )


def check_theorem(
    tid: TheoremId, G: FiniteGroup, H: SubgroupSet, budgets: Budgets = Budgets()
) -> InstanceResult:
    """Run a single theorem check against one (group, normal subgroup) instance."""
    return _run_check(tid, InstanceContext(G, H, budgets))


class Report(NamedTuple):
    results: tuple[InstanceResult, ...]
    instance_count: int

    def counts(self) -> dict[str, dict[str, int]]:
        out = {tid.value: {"pass": 0, "fail": 0, "flagged": 0, "skipped": 0} for tid in TheoremId}
        for r in self.results:
            out[r.theorem][r.verdict.lower()] += 1
        return {k: v for k, v in out.items() if sum(v.values()) > 0}

    def non_pass(self) -> list[InstanceResult]:
        return [r for r in self.results if r.verdict != PASS]

    def has_fail(self) -> bool:
        return any(r.verdict == FAIL for r in self.results)

    def kappa_breakdown(self) -> dict[str, int]:
        """The two readings of the connectivity formula: all instances vs non-complete only."""
        rows = [r for r in self.results if r.theorem == TheoremId.KAPPA_6_7.value]
        flagged = [r for r in rows if r.verdict == FLAGGED]
        return {
            "instances": len(rows),
            "flagged_total": len(flagged),
            "flagged_complete": sum(1 for r in flagged if r.note == "complete"),
            "flagged_non_complete": sum(1 for r in flagged if r.note == "non-complete"),
        }

    def to_json_obj(self) -> dict:
        return {
            "instances": self.instance_count,
            "summary": self.counts(),
            "kappa_connectivity": self.kappa_breakdown(),
            "non_pass": [
                {k: getattr(r, k) for k in ("theorem", "group", "subgroup", "verdict")}
                for r in self.non_pass()
            ],
            "results": [r._asdict() for r in self.results],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["theorem", "group", "subgroup", "hypothesis_met", "predicted", "actual", "verdict"]
        )
        for r in self.results:
            writer.writerow([
                r.theorem, r.group, r.subgroup, _csv_cell(r.hypothesis_met),
                _csv_cell(r.predicted), _csv_cell(r.actual), r.verdict,
            ])
        return buf.getvalue()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def run_catalog(cat: Catalog) -> Report:
    """All selected theorems over all catalog instances; deterministic ordering."""
    pairs = resolve_catalog(cat)
    run_cache: dict = {}
    results: list[InstanceResult] = []
    for G, H in pairs:
        ctx = InstanceContext(G, H, cat.budgets, run_cache)
        for tid in cat.theorems:
            results.append(_run_check(tid, ctx))
    return Report(results=tuple(results), instance_count=len(pairs))
