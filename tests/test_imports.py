"""The import graph and the lazy package namespace: each CLI command loads only the
layers it runs, and ``nspg.<name>`` reads the defining module's current binding."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import nspg
import nspg.subgroups

SRC = str(Path(nspg.__file__).resolve().parents[1])

CLI_MODULES = {"nspg", "nspg.cli", "nspg.groups", "nspg.subgroups"}


def _nspg_modules_after(code: str) -> set[str]:
    """The nspg modules a fresh interpreter without site has loaded after running code."""
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'nspg')))"
    )
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def test_importing_the_package_loads_no_submodule():
    assert _nspg_modules_after("import nspg") == {"nspg"}


def test_importing_the_cli_loads_only_groups_and_subgroups():
    assert _nspg_modules_after("import nspg.cli") == CLI_MODULES


@pytest.mark.parametrize(
    "argv, added",
    [
        (["list-normal-subgroups", "Z12"], set()),
        (["build", "Z6", "--subgroup", "3"], {"nspg.power_graphs"}),
        (["power-graph", "Z6", "--format", "dot"], {"nspg.power_graphs"}),
        (["analyze", "Z6", "--subgroup", "3"], {"nspg.power_graphs", "nspg.invariants"}),
        (["analyze", "Z6", "--subgroup", "3", "--format", "table"], {"nspg.power_graphs", "nspg.invariants"}),
        (["list-groups"], {"nspg.harness", "nspg.power_graphs", "nspg.invariants"}),
    ],
)
def test_each_command_loads_only_the_layers_it_runs(argv, added):
    code = (
        "import contextlib, io, nspg.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert nspg.cli.main({argv!r}) == 0"
    )
    assert _nspg_modules_after(code) == CLI_MODULES | added


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from nspg import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(nspg.__all__)


@pytest.mark.parametrize("name", [n for n in nspg.__all__ if n != "__version__"])
def test_each_name_is_its_defining_modules_object(name):
    value = getattr(nspg, name)
    assert value.__name__ == name and value.__module__.startswith("nspg.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_dir_covers_all():
    assert set(nspg.__all__) <= set(dir(nspg))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'nspg' has no attribute 'select_subgroup'"):
        nspg.select_subgroup  # noqa: B018
    assert not hasattr(nspg, "nonesuch")


def test_a_rebinding_in_the_defining_module_is_seen_through_the_package(monkeypatch):
    original = nspg.quotient

    def stand_in(G, H):
        return original(G, H)

    with monkeypatch.context() as m:
        m.setattr(nspg.subgroups, "quotient", stand_in)
        assert nspg.quotient is stand_in
    assert nspg.quotient is original
    assert "quotient" not in vars(nspg)
