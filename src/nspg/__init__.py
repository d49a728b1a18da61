"""Normal-subgroup-based power graphs: exact construction, invariants, and verification.

Each public name loads its defining module on first use, so ``import nspg`` loads
no submodule. A name is read from its defining module on every access and never
stored here, so a rebinding there is seen through ``nspg.<name>``.
"""

import importlib as _importlib

__version__ = "0.1.0"

# Each public name and the module that defines it.
_SOURCES = {
    "FiniteGroup": "groups",
    "GroupSpec": "groups",
    "euler_phi": "groups",
    "from_cayley_table": "groups",
    "make_group": "groups",
    "parse_group_spec": "groups",
    "SubgroupSet": "subgroups",
    "QuotientGroup": "subgroups",
    "all_normal_subgroups": "subgroups",
    "generated_subgroup": "subgroups",
    "quotient": "subgroups",
    "recognize": "subgroups",
    "SimpleGraph": "power_graphs",
    "NSBPowerGraph": "power_graphs",
    "power_graph": "power_graphs",
    "nsb_power_graph": "power_graphs",
    "expand_quotient_graph": "power_graphs",
    "graph_to_dot": "power_graphs",
    "graph_to_json": "power_graphs",
    "BudgetExceeded": "invariants",
    "GraphInvariants": "invariants",
    "basic_invariants": "invariants",
    "clique_number": "invariants",
    "chromatic_number": "invariants",
    "vertex_connectivity": "invariants",
    "is_planar": "invariants",
    "is_perfect": "invariants",
    "hamiltonian_cycle": "invariants",
    "girth": "invariants",
    "compute_invariants": "invariants",
    "degree_in_power_graph_formula": "invariants",
    "TheoremId": "harness",
    "InstanceResult": "harness",
    "Catalog": "harness",
    "CatalogEntry": "harness",
    "Budgets": "harness",
    "Report": "harness",
    "check_theorem": "harness",
    "default_catalog": "harness",
    "run_catalog": "harness",
}

__all__ = [*_SOURCES, "__version__"]


def __getattr__(name):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__})
