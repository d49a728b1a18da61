"""Fuzz of cli.main, in process: specs, selectors, --subgroup-index, NSPG_BUDGET and
catalog JSON, each drawn valid or mutated, on groups of order at most 32.

Every input exits 0, 2 or 3 with no exception escaping main; every exit-2 catalog
message names its entry or key; every accepted input fits the README grammar."""

import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nspg.cli import main
from nspg.harness import TheoremId

# The README grammar: spec atoms, selector tokens, and the one number form of
# --subgroup-index and NSPG_BUDGET.
ATOM = r"(Z[0-9]+|D[0-9]+|S[0-9]+|Q8|E\([0-9]+,[0-9]+\))"
SPEC = re.compile(rf"{ATOM}(x{ATOM})*")
SELECTOR = re.compile(r"([0-9]+(,[0-9]+)*)?")
NUMBER = re.compile(r"[0-9]+")

# Groups of order 1 to 32, each with selectors that pick a proper normal subgroup
# (Z1 has none: its one selector generates the whole group).
GROUPS = {
    "Z1": [""],
    "Z6": ["0", "2", "3"],
    "Z8": ["4", "2"],
    "S3": ["3", ""],
    "D4": ["2", "2,4"],
    "Q8": ["1", "2"],
    "E(2,3)": ["1", "1,2"],
    "Z3xZ3": ["1", "3"],
    "Z2xZ4": ["2", "1"],
    "D8": ["2", "4"],
    "S4": ["7,16", "3,7"],
    "Z2xZ16": ["2", "16"],
}
THEOREMS = [t.value for t in TheoremId]

MUTATIONS = {
    "keep": lambda t: t,
    "plus": lambda t: "+" + t,
    "minus": lambda t: "-" + t,
    "lead space": lambda t: " " + t,
    "trail space": lambda t: t + " ",
    "newline": lambda t: t + "\n",
    "underscore": lambda t: t[:1] + "_" + t[1:],
    "arabic digits": lambda t: t.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
    "empty": lambda t: "",
    "trailing comma": lambda t: t + ",",
    "lower": lambda t: t.lower(),
    "doubled": lambda t: t + t,
}


def mutated(tokens):
    """A token from tokens, kept as it is half the time, else passed through one mutation."""
    edit = st.one_of(st.just("keep"), st.sampled_from(sorted(MUTATIONS)))
    return st.tuples(st.sampled_from(tokens), edit).map(lambda pair: MUTATIONS[pair[1]](pair[0]))


def rarely(draw) -> bool:
    return draw(st.integers(0, 9)) == 0


@st.composite
def group_and_selectors(draw):
    """A spec, mutated or not, and a strategy for selectors: mostly its own."""
    name = draw(st.sampled_from(sorted(GROUPS)))
    spec = draw(mutated([name]))
    return spec, mutated(GROUPS[name] + ["99", "1,99"] if rarely(draw) else GROUPS[name])


budgets = st.one_of(st.none(), mutated(["1", "4", "12", "64", "064"]))
indices = mutated(["0", "1", "2", "3", "7", "00"])
theorem_lists = st.one_of(
    st.lists(st.sampled_from(THEOREMS), min_size=1, max_size=3, unique=True),
    st.lists(mutated(THEOREMS[:3] + ["BOGUS"]), max_size=3),
)


@st.composite
def catalog_entries(draw):
    spec, selectors = draw(group_and_selectors())
    entry = {"group": draw(st.sampled_from([8, None, True, ["S3"]])) if rarely(draw) else spec}
    if rarely(draw):
        entry["subgroups"] = draw(st.sampled_from(["3", [], [6], [None], {"x": 1}]))
    elif draw(st.booleans()):
        entry["subgroups"] = draw(st.one_of(st.just("all-normal"), st.lists(selectors, min_size=1, max_size=2)))
    if rarely(draw):
        entry[draw(st.sampled_from(["subgroup", "groups", "theorems"]))] = []
    return entry


@st.composite
def catalogs(draw):
    catalog = {}
    if not rarely(draw):
        catalog["instances"] = draw(st.lists(catalog_entries(), min_size=0 if rarely(draw) else 1, max_size=2))
    if draw(st.booleans()):
        catalog["theorems"] = draw(theorem_lists)
    if rarely(draw):
        catalog[draw(st.sampled_from(["theorem", "instance", "budget"]))] = []
    return catalog


@st.composite
def cases(draw):
    """(argv, NSPG_BUDGET or None, catalog or None); "CATALOG" in argv stands for its path."""
    budget = draw(budgets)
    command = draw(st.sampled_from(["list-normal-subgroups", "power-graph", "build", "analyze", "verify"]))
    if command == "verify":
        argv = ["verify", "--catalog", "CATALOG", "--format", draw(st.sampled_from(["csv", "json"]))]
        if rarely(draw):
            argv += ["--theorems", ",".join(draw(theorem_lists))]
        return tuple(argv), budget, draw(catalogs())
    spec, selectors = draw(group_and_selectors())
    argv = [command, spec]
    if command in ("build", "analyze"):
        if draw(st.booleans()):
            argv += ["--subgroup", draw(selectors)]
        else:
            argv += ["--subgroup-index", draw(indices)]
    return tuple(argv), budget, None


def _accepted_input_fits_the_grammar(argv, budget, catalog):
    if argv[0] in ("analyze", "verify"):  # the commands that read NSPG_BUDGET
        assert budget is None or NUMBER.fullmatch(budget), budget
    if catalog is None:
        assert SPEC.fullmatch(argv[1]), argv
    if "--subgroup" in argv:
        assert SELECTOR.fullmatch(argv[argv.index("--subgroup") + 1]), argv
    if "--subgroup-index" in argv:
        assert NUMBER.fullmatch(argv[argv.index("--subgroup-index") + 1]), argv
    if "--theorems" in argv:
        names = argv[argv.index("--theorems") + 1].split(",")
        assert len(set(names)) == len(names) and set(names) <= set(THEOREMS), argv
    if catalog is not None:
        assert set(catalog) <= {"instances", "theorems"} and catalog["instances"], catalog
        for entry in catalog["instances"]:
            assert set(entry) <= {"group", "subgroups"} and SPEC.fullmatch(entry["group"]), entry
            subs = entry.get("subgroups", "all-normal")
            assert subs == "all-normal" or (subs and all(SELECTOR.fullmatch(s) for s in subs)), entry
        names = catalog.get("theorems", THEOREMS)
        assert names and len(set(names)) == len(names) and set(names) <= set(THEOREMS), catalog


# A catalog message names an entry ("instance <i>") or a key; an unknown theorem
# id names the "theorems" list's value.
NAMES_ENTRY_OR_KEY = re.compile(r"instance \d+|'instances'|'theorems'|theorem id|unknown key")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=cases())
@example(case=(("build", "Z4", "--subgroup-index", "+1"), None, None))
@example(case=(("analyze", "Z6", "--subgroup", "3"), "6_4", None))
@example(case=(
    ("verify", "--catalog", "CATALOG", "--format", "csv"),
    None,
    {"instances": [{"group": "S3", "subgroups": ["3"]}, {"group": "S3", "subgroups": ["1"]}]},
))
def test_cli_main_exits_0_2_or_3_and_accepts_only_the_grammar(case):
    argv, budget, catalog = case
    env = {k: v for k, v in os.environ.items() if k != "NSPG_BUDGET"}
    if budget is not None:
        env["NSPG_BUDGET"] = budget
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, patch.dict(os.environ, env, clear=True):
        path = Path(tmp) / "catalog.json"
        path.write_text(json.dumps(catalog), encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = main([str(path) if a == "CATALOG" else a for a in argv])
    assert code in (0, 2, 3), (code, err.getvalue())
    if code == 2:
        assert err.getvalue().startswith(("error: ", "usage: ")), err.getvalue()
        message = err.getvalue()
        if catalog is not None and message.startswith("error: ") and "NSPG_BUDGET" not in message:
            assert NAMES_ENTRY_OR_KEY.search(message), message
    else:
        assert err.getvalue() == ""
        _accepted_input_fits_the_grammar(argv, budget, catalog)
