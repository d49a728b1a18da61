"""Layer spans recorded from outside the package.

Each traced public function is replaced by a wrapper at every module binding
(``cli`` and ``harness`` import names directly, so patching the defining module
alone would miss their calls). Wrappers keep spans in memory; ``installed()``
puts the originals back when it exits. No file of the package is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (span name, defining module, attribute); "Class.method" names a method.
TRACED = (
    ("cli", "nspg.cli", "main"),
    ("groups.make_group", "nspg.groups", "make_group"),
    ("groups.validate_cayley_table", "nspg.groups", "validate_cayley_table"),
    ("subgroups.all_normal_subgroups", "nspg.subgroups", "all_normal_subgroups"),
    ("subgroups.generated_subgroup", "nspg.subgroups", "generated_subgroup"),
    ("subgroups.quotient", "nspg.subgroups", "quotient"),
    ("subgroups.describe", "nspg.subgroups", "SubgroupSet.describe"),
    ("power_graphs.power_graph", "nspg.power_graphs", "power_graph"),
    ("power_graphs.nsb_power_graph", "nspg.power_graphs", "nsb_power_graph"),
    ("power_graphs.expand_quotient_graph", "nspg.power_graphs", "expand_quotient_graph"),
    ("invariants.basic_invariants", "nspg.invariants", "basic_invariants"),
    ("invariants.clique_number", "nspg.invariants", "clique_number"),
    ("invariants.chromatic_number", "nspg.invariants", "chromatic_number"),
    ("invariants.vertex_connectivity", "nspg.invariants", "vertex_connectivity"),
    ("invariants.is_planar", "nspg.invariants", "is_planar"),
    ("invariants.is_perfect", "nspg.invariants", "is_perfect"),
    ("invariants.hamiltonian_cycle", "nspg.invariants", "hamiltonian_cycle"),
    ("invariants.degree_in_power_graph_formula", "nspg.invariants", "degree_in_power_graph_formula"),
    ("harness.resolve_catalog", "nspg.harness", "resolve_catalog"),
    ("harness.run_catalog", "nspg.harness", "run_catalog"),
    ("harness.report", "nspg.harness", "Report.to_csv"),
    ("harness.report", "nspg.harness", "Report.to_json"),
)

# Every module whose namespace may hold a binding of a traced function.
MODULES = (
    "nspg",
    "nspg.cli",
    "nspg.groups",
    "nspg.subgroups",
    "nspg.power_graphs",
    "nspg.invariants",
    "nspg.harness",
)

# Solvers whose BudgetExceeded refusals make up invariants.refusal_ratio.
SOLVERS = (
    "invariants.clique_number",
    "invariants.chromatic_number",
    "invariants.vertex_connectivity",
    "invariants.is_planar",
    "invariants.is_perfect",
    "invariants.hamiltonian_cycle",
)

# Returned sizes worth counting: subgroups found and graph edges built.
SIZES = {
    "subgroups.all_normal_subgroups": len,
    "power_graphs.power_graph": lambda g: g.edge_count,
    "power_graphs.nsb_power_graph": lambda r: r.graph.edge_count,
}

NAME, START, END, PARENT, COMMAND, SIZE, REFUSED = range(7)


class Tracer:
    """In-memory spans: [name, start, end, parent index, command id, size, refused]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.command: object = None
        self._stack: list[int] = []
        self._last_refusal: BaseException | None = None
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, budget_exceeded: type[BaseException]):
        size_of = SIZES.get(name)
        perf_counter = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.command, 0, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except budget_exceeded as exc:
                # Count a refusal once, in the innermost traced call it left.
                if exc is not self._last_refusal:
                    self._last_refusal = exc
                    span[REFUSED] = True
                raise
            finally:
                span[END] = perf_counter()
                self._stack.pop()
            if size_of is not None:
                span[SIZE] = size_of(result)
            return result

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        budget_exceeded = importlib.import_module("nspg.invariants").BudgetExceeded
        for name, module_name, attr in TRACED:
            owner = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._restore.append((cls, method, cls.__dict__[method]))
                setattr(cls, method, self._wrap(name, cls.__dict__[method], budget_exceeded))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, budget_exceeded)
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, binding, original))
                        setattr(module, binding, wrapper)

    def remove(self) -> None:
        while self._restore:
            owner, binding, original = self._restore.pop()
            setattr(owner, binding, original)

    @contextlib.contextmanager
    def installed(self):
        try:
            self.install()
            yield self
        finally:
            self.remove()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its (nested, sequential) children cover."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child[span[PARENT]] += span[END] - span[START]
        return [span[END] - span[START] - child[i] for i, span in enumerate(self.spans)]


# Per-layer metrics whose call counts are reported, and whose share of the pass is.
COUNTED = (
    "groups.validate_cayley_table",
    "subgroups.all_normal_subgroups",
    "invariants.vertex_connectivity",
    "invariants.degree_in_power_graph_formula",
)


def layer_metrics(tracer: Tracer, keep, passes: int) -> dict[str, tuple[float, str]]:
    """Per-pass totals over the spans whose command id satisfies ``keep``."""
    names = dict.fromkeys(name for name, _, _ in TRACED)
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    sizes = dict.fromkeys(names, 0)
    refusals = 0
    for span, own in zip(tracer.spans, tracer.self_times()):
        if not keep(span[COMMAND]):
            continue
        self_s[span[NAME]] += own
        calls[span[NAME]] += 1
        sizes[span[NAME]] += span[SIZE]
        refusals += span[REFUSED]
    solver_calls = sum(calls[name] for name in SOLVERS)
    traced_s = sum(self_s.values())
    out = {f"{name}.self_s": (self_s[name] / passes, "s") for name in names}
    for name in COUNTED:
        out[f"{name}.calls"] = (calls[name] / passes, "count")
        out[f"{name}.share"] = (100.0 * self_s[name] / traced_s if traced_s else 0.0, "%")
    out["subgroups.all_normal_subgroups.found"] = (sizes["subgroups.all_normal_subgroups"] / passes, "count")
    edges = sizes["power_graphs.power_graph"] + sizes["power_graphs.nsb_power_graph"]
    out["power_graphs.edges_built"] = (edges / passes, "count")
    out["invariants.refusals"] = (refusals / passes, "count")
    out["invariants.refusal_ratio"] = (refusals / solver_calls if solver_calls else 0.0, "ratio")
    return out
