"""The public records: immutable NamedTuples with value semantics, and an import
of the package that loads neither ``dataclasses`` nor ``inspect``."""

import subprocess
import sys
from pathlib import Path

import pytest

import nspg
from nspg import (
    Budgets,
    Catalog,
    CatalogEntry,
    GroupSpec,
    TheoremId,
    check_theorem,
    compute_invariants,
    generated_subgroup,
    make_group,
    nsb_power_graph,
    parse_group_spec,
    quotient,
    recognize,
    run_catalog,
)
from nspg.invariants import DEFAULT_ODD_HOLE_BUDGET, DEFAULT_SOLVER_BUDGET, invariants_to_json_obj

SRC = str(Path(nspg.__file__).resolve().parents[1])


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # A fresh interpreter without site: pytest itself has loaded both modules here.
    code = (
        f"import sys; sys.path.insert(0, {SRC!r}); import nspg.cli; "
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_records_build_by_keyword_with_their_defaults():
    assert Budgets() == Budgets(exact_solver=DEFAULT_SOLVER_BUDGET, odd_hole=DEFAULT_ODD_HOLE_BUDGET)
    entries = (CatalogEntry("Z4"),)
    assert entries[0].subgroups == "all-normal"
    cat = Catalog(entries)
    assert cat.theorems == tuple(TheoremId) and cat.budgets == Budgets()
    spec = GroupSpec("cyclic", n=4)
    assert spec.factors == () and spec.p == spec.k == 0
    assert spec.group_order() == 4
    G = make_group(spec)
    H = generated_subgroup(G, [2])
    assert H.order == 2 and H.describe() == "<2>"
    result = check_theorem(TheoremId.EDGES_6_1, G, H)
    assert result.note == ""
    inv = compute_invariants(nsb_power_graph(G, H).graph)
    assert inv.skipped == () and inv.clique_number == 3


RECORDS = (
    "GroupSpec",
    "SubgroupSet",
    "QuotientGroup",
    "StructureFlags",
    "NSBPowerGraph",
    "GraphInvariants",
    "InstanceResult",
    "Budgets",
    "CatalogEntry",
    "Catalog",
    "Report",
)


def _build() -> dict:
    """One record of each type, by name."""
    G = make_group(parse_group_spec("Z2xZ4"))
    H = generated_subgroup(G, [4])
    Q = quotient(G, H)
    nsb = nsb_power_graph(G, H)
    cat = Catalog((CatalogEntry("Z4", ("2",)),), (TheoremId.EDGES_6_1, TheoremId.KAPPA_6_7))
    report = run_catalog(cat)
    records = (
        parse_group_spec("Z2xZ4"), H, Q, recognize(Q.group), nsb, compute_invariants(nsb.graph),
        report.results[0], Budgets(), cat.entries[0], cat, report,
    )
    return dict(zip(RECORDS, records))


@pytest.fixture(scope="module")
def built_twice():
    return _build(), _build()


@pytest.mark.parametrize("name", RECORDS)
def test_equal_fields_give_equal_records_and_hashes(built_twice, name):
    a, b = (side[name] for side in built_twice)
    assert type(a).__name__ == name and type(b) is type(a) and a is not b
    assert a == b and hash(a) == hash(b)
    assert type(a)(**a._asdict()) == a


@pytest.mark.parametrize("name", RECORDS)
def test_records_refuse_attribute_assignment(built_twice, name):
    record = built_twice[0][name]
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


def test_invariant_fields_give_the_json_key_order():
    G = make_group(parse_group_spec("Z6"))
    inv = compute_invariants(nsb_power_graph(G, generated_subgroup(G, [3])).graph)
    assert inv.skipped == ()
    not_flat = ("clique_witness", "coloring", "vertex_cut", "hamiltonian_cycle", "skipped")
    keys = list(invariants_to_json_obj(inv))
    assert keys[-1] == "witnesses"
    assert keys[:-1] == [f for f in inv._fields if f not in not_flat]
