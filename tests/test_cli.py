import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nspg
import nspg.invariants as inv
import pinned_outputs
from nspg.cli import main
from nspg.power_graphs import SimpleGraph


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_json_exact_output(capsys):
    code, out, _ = run_cli(capsys, "build", "Z4", "--subgroup", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj == {"vertices": ["0", "1", "3"], "edges": [[0, 1], [0, 2], [1, 2]]}


def test_build_dot_output(capsys):
    code, out, _ = run_cli(capsys, "build", "Z4", "--subgroup", "2", "--format", "dot")
    assert code == 0
    assert out.startswith('graph "Z4 mod <2>" {')
    assert "1 -- 2;" in out


def test_build_default_format_is_json(capsys):
    code, out, _ = run_cli(capsys, "build", "Z4", "--subgroup", "2")
    assert code == 0
    assert json.loads(out)["vertices"] == ["0", "1", "3"]


def test_cli_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3")
    _, second, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3")
    assert first == second


def test_power_graph_command(capsys):
    code, out, _ = run_cli(capsys, "power-graph", "Z5", "--format", "json")
    assert code == 0
    assert len(json.loads(out)["edges"]) == 10


def test_list_groups(capsys):
    code, out, _ = run_cli(capsys, "list-groups")
    assert code == 0
    lines = out.splitlines()
    assert "Z24" in lines and "S4" in lines and "Q8" in lines and "E(2,4)" in lines


def test_list_normal_subgroups(capsys):
    code, out, _ = run_cli(capsys, "list-normal-subgroups", "Z4")
    assert code == 0
    assert out.splitlines() == [
        "[0] order=1 subgroup={e}",
        "[1] order=2 subgroup=<2>",
        "[2] order=4 subgroup=<1>",
    ]


def test_list_normal_subgroups_matches_the_benchmark_record(capsys):
    # The describe strings and the index order that --subgroup-index selects by.
    record = Path(__file__).resolve().parents[1] / "bench" / "expected" / "normal_subgroups.json"
    expected = json.loads(record.read_text(encoding="utf-8"))
    assert len(expected) == 9
    for spec, lines in expected.items():
        code, out, err = run_cli(capsys, "list-normal-subgroups", spec)
        assert (code, err) == (0, "")
        assert out.splitlines() == lines


def test_subgroup_index_selector(capsys):
    _, by_gens, _ = run_cli(capsys, "build", "Z4", "--subgroup", "2")
    _, by_index, _ = run_cli(capsys, "build", "Z4", "--subgroup-index", "1")
    assert by_gens == by_index


def test_unparseable_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "Zx9", "--subgroup", "2")
    assert code == 2
    assert "error:" in err


def test_non_normal_selector_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "S3", "--subgroup", "1")
    assert code == 2
    assert "not normal" in err


def test_whole_group_selector_exits_2(capsys):
    code, _, err = run_cli(capsys, "build", "Z4", "--subgroup", "1")
    assert code == 2
    assert "error:" in err


# A number past 18 significant digits is refused before int() reads it; past
# 4300 digits int() would raise its own error, on Pythons that have the limit.
_LONG = "9" * 5000


def _too_long(what, digits=5000):
    return f"{what} has {digits} digits; at most 18 are allowed"


LONG_NUMBER_ERRORS = [
    *((("list-normal-subgroups", spec), _too_long("group spec number"))
      for spec in (f"Z{_LONG}", f"D{_LONG}", f"S{_LONG}", f"E({_LONG},2)", f"E(2,{_LONG})")),
    *((("build", "Z4", "--subgroup", s), _too_long("selector token")) for s in (_LONG, f"2,-{_LONG}")),
    *((("build", "Z4", "--subgroup-index", i), _too_long("--subgroup-index")) for i in (_LONG, f"-{_LONG}")),
    ((f"NSPG_BUDGET={_LONG}", "analyze", "Z6", "--subgroup", "3"), _too_long("NSPG_BUDGET")),
    (("list-normal-subgroups", "Z1" + "0" * 18), _too_long("group spec number", 19)),
]


@pytest.mark.parametrize(
    "argv, message",
    [
        (("build", "Z4", "--subgroup", "x"), "selector 'x' is not a comma-separated list of element indices"),
        (("analyze", "Z4", "--subgroup", "-1"), "generator index out of range"),
        (("analyze", "Z4", "--subgroup-index", "7"), "subgroup index 7 out of range; Z4 has 3 normal subgroups"),
        (("list-normal-subgroups", "E(4,2)"), "elementary abelian base 4 is not prime"),
        (("power-graph", "Z0"), "cyclic order must be positive"),
        (("analyze", "Z4", "--subgroup", "x"), "selector 'x' is not a comma-separated list of element indices"),
        (("build", "S3", "--subgroup", "1"), "selector '1' generates <1>, which is not normal in S3"),
        (("build", "Z4", "--subgroup", "1"), "selector '1' generates all of Z4"),
        (
            ("verify", "--theorems", ""),
            "unknown theorem id ''; valid ids: COMPLETE_3_1,CAYLEY_3_3,DEGREE_4_1,EULERIAN_4_2,"
            "HAMILTONIAN_4_4,GIRTH_5_3,BIPARTITE_TREE_5_2,PLANAR_5_4,EDGES_6_1,CLIQUE_6_4,"
            "PERFECT_6_5,CHROMATIC_6_6,KAPPA_6_7",
        ),
        # Selector tokens are [0-9]+ (a signed one is out of range); anything
        # else, an empty token included, is refused.
        *(
            (("build", "Z6", "--subgroup", selector),
             f"selector {selector!r} is not a comma-separated list of element indices")
            for selector in ("+3", " 3", "3 ", "3\n", "1_0", "\u0663", ",", "3,", ",3", "3-")
        ),
        (("list-normal-subgroups", "Z4\n"), "unrecognized group spec 'Z4\\n'"),
        (("analyze", "Z4", "--subgroup", "-0"), "generator index out of range"),
        (("analyze", "Z4", "--subgroup", "2,-00"), "generator index out of range"),
        # --subgroup-index and NSPG_BUDGET follow the selector tokens' rule: [0-9]+.
        *(
            (("build", "Z4", "--subgroup-index", index), f"--subgroup-index {index!r} is not an index such as 2")
            for index in ("+1", " 1", "1 ", "1\n", "1_0", "\u0663", "", "x")
        ),
        (("build", "Z4", "--subgroup-index", "-0"), "subgroup index -0 out of range; Z4 has 3 normal subgroups"),
        (("build", "Z4", "--subgroup-index", "-1"), "subgroup index -1 out of range; Z4 has 3 normal subgroups"),
        *(
            ((f"NSPG_BUDGET={budget}", "analyze", "Z6", "--subgroup", "3"),
             f"NSPG_BUDGET must be a positive integer, got {budget!r}")
            for budget in (" 64", "+64", "6_4", "\u0666\u0664", "64\n", "", "0", "-64")
        ),
        *LONG_NUMBER_ERRORS,
        (("power-graph", "D0"), "dihedral parameter must be positive"),
        (("power-graph", "S0"), "symmetric degree must be positive"),
        (("power-graph", "E(2,0)"), "elementary abelian rank must be positive"),
    ],
)
def test_library_errors_exit_2_with_their_message(capsys, monkeypatch, argv, message):
    # A leading NAME=value item sets that variable, as on a shell command line.
    while "=" in argv[0]:
        name, value = argv[0].split("=", 1)
        monkeypatch.setenv(name, value)
        argv = argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="this Python has no int digit limit")
@pytest.mark.parametrize("argv, message", LONG_NUMBER_ERRORS)
def test_long_number_errors_do_not_depend_on_the_int_digit_limit(capsys, monkeypatch, argv, message):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        test_library_errors_exit_2_with_their_message(capsys, monkeypatch, argv, message)
    finally:
        sys.set_int_max_str_digits(limit)


def test_leading_zeros_do_not_count_against_the_digit_limit(capsys):
    padded = run_cli(capsys, "build", "Z" + "0" * 5000 + "4", "--subgroup", "0" * 5000 + "2")
    assert padded == run_cli(capsys, "build", "Z4", "--subgroup", "2")


# A long input is repeated as its first 64 characters and its length.
_TOKENS = ",".join(["1"] * 20000)
_Z1S = "x".join(["Z1"] * 10000)  # a group of order 1 with a 29,999-character name


def _head(text, quote=repr):
    return f"{quote(text[:64])}... ({len(text)} characters)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("build", "Z4", "--subgroup", _TOKENS), f"selector {_head(_TOKENS)} generates all of Z4"),
        (("power-graph", "Q" * 30000), f"unrecognized group spec {_head('Q' * 30000)}"),
        (("power-graph", "Z2" + "x" * 30000), f"malformed group spec {_head('Z2' + 'x' * 30000)}"),
        (("build", _Z1S, "--subgroup", ""), f"selector '' generates all of {_head(_Z1S, str)}"),
        (("build", "Z4", "--subgroup-index", "+" * 30000),
         f"--subgroup-index {_head('+' * 30000)} is not an index such as 2"),
        (("build", "Z4", "--subgroup-index", "-" + "0" * 30000),
         f"subgroup index {_head('-' + '0' * 30000, str)} out of range; Z4 has 3 normal subgroups"),
        ((f"NSPG_BUDGET={'x' * 30000}", "analyze", "Z6", "--subgroup", "3"),
         f"NSPG_BUDGET must be a positive integer, got {_head('x' * 30000)}"),
        (("verify", "--theorems", "X" * 30000), f"unknown theorem id {_head('X' * 30000)}; valid ids: "),
    ],
    ids=["selector", "spec", "malformed-spec", "group-name", "subgroup-index", "signed-index", "budget", "theorem"],
)
def test_long_inputs_are_repeated_as_a_bounded_prefix_and_their_length(capsys, monkeypatch, argv, message):
    if argv[0].startswith("NSPG_BUDGET="):
        monkeypatch.setenv("NSPG_BUDGET", argv[0].split("=", 1)[1])
        argv = argv[1:]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and len(err.encode()) < 400, err


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"group": "Q" * 30000},
         f"cannot load catalog: instance 1 ({_head('Q' * 30000, str)}):"
         f" unrecognized group spec {_head('Q' * 30000)}"),
        ({"group": "Z4", "k" * 30000: 1},
         f"cannot load catalog: instance 1 (Z4): unknown key {_head('k' * 30000)}; valid keys: "),
        ({"group": list(range(30000))},
         "cannot load catalog: instance 1: 'group' must be a spec string such as \"Z2xZ4\","
         f" got {_head(json.dumps(list(range(30000))), str)}"),
        # Found while resolving, after the file loaded.
        ({"group": "Z4", "subgroups": ["x" * 30000]},
         f"instance 1 (Z4): selector {_head('x' * 30000)} is not a comma-separated list of element indices"),
    ],
    ids=["spec", "key", "non-string-group", "selector"],
)
def test_long_catalog_inputs_are_repeated_as_a_bounded_prefix(capsys, tmp_path, entry, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": [{"group": "Z4"}, entry]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}") and len(err.encode()) < 400, err


def test_verify_reports_a_catalog_group_past_the_budget(capsys, tmp_path):
    # The loader checks every entry's spec, so the refusal names the entry and is a load error.
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": [{"group": "Z257", "subgroups": ["0"]}]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, out, err) == (
        2, "", "error: cannot load catalog: instance 0 (Z257): group order 257 exceeds budget 256\n"
    )


def test_verify_checks_every_catalog_spec_before_building_a_group(capsys, tmp_path, monkeypatch):
    import nspg.harness

    def refuse(spec):
        raise AssertionError(f"built {spec} before the catalog was checked")

    monkeypatch.setattr(nspg.harness, "make_group", refuse)
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": [{"group": "Z4"}, {"group": "Z257"}]}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, out, err) == (
        2, "", "error: cannot load catalog: instance 1 (Z257): group order 257 exceeds budget 256\n"
    )


@pytest.mark.parametrize(
    "group, selector",
    [
        ("Z4", "x"), ("S3", "1"), ("Z4", "1"), ("Z4", "-1"), ("Z4", "-0"), ("Z6", "+3"), ("Z6", ","),
        ("S3", "99"), ("Z4", "2,-00"), ("D4", "1_0"),
    ],
)
def test_catalog_selectors_fail_as_build_does(capsys, tmp_path, group, selector):
    # The same message, after the name of the catalog entry.
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": [{"group": group, "subgroups": [selector]}]}), encoding="utf-8")
    by_catalog = run_cli(capsys, "verify", "--catalog", str(path))
    code, out, err = run_cli(capsys, "build", group, "--subgroup", selector)
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert by_catalog == (2, "", err.replace("error: ", f"error: instance 0 ({group}): ", 1))


@pytest.mark.parametrize(
    "instances, message",
    [
        (
            [{"group": "S3", "subgroups": ["3"]}, {"group": "S3", "subgroups": ["1"]}],
            "instance 1 (S3): selector '1' generates <1>, which is not normal in S3",
        ),
        ([{"group": "S3", "subgroups": ["99"]}], "instance 0 (S3): generator index out of range"),
        (
            [{"group": "Z4"}, {"group": "E(2,8)"}],
            "instance 1 (E(2,8)): E(2,8) has more than 4096 normal subgroups; enumeration refused",
        ),
    ],
)
def test_catalog_errors_found_while_resolving_name_their_entry(capsys, tmp_path, instances, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "instances", [[{"group": "Z1"}], [{"group": "Z1"}, {"group": "S1", "subgroups": "all-normal"}]]
)
def test_verify_refuses_a_catalog_that_selects_no_pair(capsys, tmp_path, instances):
    # The trivial group has no proper normal subgroup: such a catalog would
    # print a bare CSV header and pass, as no empty "instances" list may.
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": instances}), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path), "--format", "csv")
    assert (code, out) == (2, "")
    assert err == "error: 'instances' selects no group with a proper normal subgroup\n"


def test_analyze_json_anchor_values(capsys):
    code, out, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["is_complete"] is True
    assert obj["edge_count"] == 10
    assert obj["clique_number"] == 5
    assert obj["chromatic_number"] == 5
    assert obj["is_planar"] is False


def test_analyze_table_format(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3", "--format", "table")
    assert code == 0
    lines = out.splitlines()
    assert any(line.startswith("edge_count") and line.endswith("10") for line in lines)
    assert any(line.startswith("witness.clique") for line in lines)
    # Every row, in order: the JSON keys but witnesses and skipped, then each witness,
    # sorted; once with all solvers run and once with some skipped by the budget.
    for budget, exit_code in [(None, 0), ("4", 3)]:
        if budget is not None:
            monkeypatch.setenv("NSPG_BUDGET", budget)
        code, out, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3", "--format", "table")
        assert code == exit_code
        obj = json.loads(run_cli(capsys, "analyze", "Z6", "--subgroup", "3")[1])
        expected = [(k, v) for k, v in obj.items() if k not in ("witnesses", "skipped")]
        expected += [("witness." + k, v) for k, v in sorted(obj.get("witnesses", {}).items())]
        rows = [line.split(None, 1) for line in out.splitlines()]
        assert [key for key, _ in rows] == [key for key, _ in expected]
        for (_, text), (_, value) in zip(rows, expected):
            assert text == (value if isinstance(value, str) else json.dumps(value))


def test_analyze_budget_exceeded_gives_nulls_and_exit_3(capsys, monkeypatch):
    monkeypatch.setenv("NSPG_BUDGET", "4")
    code, out, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3")
    assert code == 3
    obj = json.loads(out)
    assert obj["clique_number"] is None
    assert obj["is_planar"] is False  # a K5; planarity has no budget
    assert "clique_number" in obj["skipped"]
    assert obj["edge_count"] == 10  # partial output still present


def test_analyze_decides_planarity_beyond_the_vertex_budget(capsys):
    code, out, _ = run_cli(capsys, "analyze", "S5", "--subgroup", "0")
    assert code == 3  # the other solvers still refuse its 120 vertices
    obj = json.loads(out)
    assert obj["is_planar"] is False
    assert "is_planar" not in obj["skipped"]


@pytest.mark.parametrize(
    "spec, size, digest",
    [
        ("S3xZ6", 1186, "1e20ed5b228d10c18c3707948268878e8e11c453034a27387bceac9b3139de85"),
        ("D6xZ3", 1188, "5a762a59164a6f8e2a1b6952076f805ab48c67c85b25ea4b3fa4d919bfd358dc"),
    ],
)
def test_analyze_refuses_hamiltonicity_on_a_graph_that_is_not_one_tough(capsys, spec, size, digest):
    # 36 vertices with a small separator: the backtracking alone took about 0.4 s on each.
    code, out, _ = run_cli(capsys, "analyze", spec, "--subgroup-index", "0")
    assert code == 3  # perfectness is still refused: 36 vertices exceed its budget of 24
    obj = json.loads(out)
    assert obj["is_hamiltonian"] is False
    assert obj["skipped"] == ["is_perfect"]
    assert (len(out.encode()), hashlib.sha256(out.encode()).hexdigest()) == (size, digest)


@pytest.mark.parametrize("spec", ["E(1000000000000000003,1)", "E(3,200000000)", "Z2xE(3,200000000)"])
def test_huge_elementary_abelian_spec_exits_2_at_once(spec):
    src = str(Path(nspg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "nspg.cli", "list-normal-subgroups", spec],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert "error:" in proc.stderr and len(proc.stderr) < 100


def test_huge_direct_product_names_the_first_order_past_the_budget(capsys):
    code, out, err = run_cli(capsys, "list-normal-subgroups", "x".join(["Z256"] * 40))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and len(err) < 80
    assert err.strip() == "error: group order 65536 exceeds budget 256"
    code, _, err = run_cli(capsys, "list-normal-subgroups", "Z2xZ256")
    assert code == 2
    assert err.strip() == "error: group order 512 exceeds budget 256"


def test_invalid_budget_env_exits_2(capsys, monkeypatch):
    monkeypatch.setenv("NSPG_BUDGET", "zero")
    code, _, err = run_cli(capsys, "analyze", "Z6", "--subgroup", "3")
    assert code == 2
    assert "NSPG_BUDGET" in err


def test_verify_selected_theorem_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorems", "EULERIAN_4_2", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "theorem,group,subgroup,hypothesis_met,predicted,actual,verdict"
    assert len(lines) > 50
    assert all(line.endswith(",PASS") for line in lines[1:])


def test_verify_unknown_theorem_exits_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--theorems", "NO_SUCH_THEOREM")
    assert code == 2
    assert "valid ids" in err


def test_verify_names_the_unknown_theorem_id(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorems", "EDGES_6_1,BOGUS")
    assert code == 2
    assert out == ""
    assert err == (
        "error: unknown theorem id 'BOGUS'; valid ids: COMPLETE_3_1,CAYLEY_3_3,DEGREE_4_1,"
        "EULERIAN_4_2,HAMILTONIAN_4_4,GIRTH_5_3,BIPARTITE_TREE_5_2,PLANAR_5_4,EDGES_6_1,"
        "CLIQUE_6_4,PERFECT_6_5,CHROMATIC_6_6,KAPPA_6_7\n"
    )


def test_verify_refuses_a_repeated_theorem_id(capsys):
    code, out, err = run_cli(capsys, "verify", "--theorems", "EULERIAN_4_2,EULERIAN_4_2")
    assert (code, out, err) == (2, "", "error: duplicate theorem id 'EULERIAN_4_2'\n")


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorems", "GIRTH_5_3,EDGES_6_1")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["GIRTH_5_3"]["fail"] == 0
    assert obj["summary"]["EDGES_6_1"]["pass"] > 0


@pytest.mark.parametrize("command, expected", pinned_outputs.PINS, ids=[c for c, _ in pinned_outputs.PINS])
def test_pinned_output(command, expected):
    assert pinned_outputs.check(command, expected) is None


def test_a_changed_pin_fails_and_names_its_command(tmp_path, monkeypatch, capsys):
    pins = dict(pinned_outputs.PINS)
    size, digest = pins["list-normal-subgroups S5"]
    wrong_digest = ("list-normal-subgroups S5", (size, digest[::-1]))
    digest_failure = (
        f"list-normal-subgroups S5: expected exit 0, {size} bytes, sha256 {digest[::-1]};"
        f" got exit 0, {size} bytes, sha256 {digest}"
    )
    assert pinned_outputs.check(*wrong_digest) == digest_failure
    golden = pins["analyze Z6 --subgroup 3"]
    right = (pinned_outputs.GOLDEN / golden).read_bytes()
    wrong = bytes([right[0] ^ 1]) + right[1:]
    (tmp_path / golden).write_bytes(wrong)
    monkeypatch.setattr(pinned_outputs, "GOLDEN", tmp_path)
    golden_failure = (
        f"analyze Z6 --subgroup 3: expected exit 0, {len(wrong)} bytes,"
        f" sha256 {hashlib.sha256(wrong).hexdigest()};"
        f" got exit 0, {len(right)} bytes, sha256 {hashlib.sha256(right).hexdigest()}"
    )
    assert pinned_outputs.check("analyze Z6 --subgroup 3", golden) == golden_failure
    monkeypatch.setattr(pinned_outputs, "PINS", (wrong_digest, ("analyze Z6 --subgroup 3", golden)))
    assert pinned_outputs.main() == 1
    assert capsys.readouterr().out == f"FAIL {digest_failure}\nFAIL {golden_failure}\n"


def test_power_graph_of_e13_2_separates_digits_past_ten(capsys):
    # Concatenated, the E(13,2) labels (1,12) and (11,2) were both "112".
    code, out, _ = run_cli(capsys, "power-graph", "E(13,2)")
    assert code == 0
    labels = json.loads(out)["vertices"]
    assert labels[1 * 13 + 12] == "1,12" and labels[11 * 13 + 2] == "11,2"


def test_verify_large_notes_thirteen_budget_refusals():
    # The bench's verify-large catalog: DEGREE_4_1 and EDGES_6_1 at order 64-256.
    code, out = pinned_outputs.output("verify --catalog verify_large.json --format json")
    assert code == 0
    notes = [r["note"] for r in json.loads(out)["results"] if r["note"].startswith("budget exceeded: ")]
    assert len(notes) == 13


def test_verify_with_catalog_file(capsys, tmp_path):
    catalog = {
        "instances": [{"group": "Z4", "subgroups": ["2"]}],
        "theorems": ["EDGES_6_1", "KAPPA_6_7"],
    }
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog), encoding="utf-8")
    code, out, _ = run_cli(capsys, "verify", "--catalog", str(path), "--format", "csv")
    assert code == 0  # FLAGGED entries do not fail the run
    lines = out.splitlines()
    assert lines[1] == "EDGES_6_1,Z4,<2>,true,3,3,PASS"
    assert lines[2] == "KAPPA_6_7,Z4,<2>,true,1,2,FLAGGED"


def test_readme_catalog_example_runs(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    after = readme.split("Catalog file schema", 1)[1]
    example = after.split("```json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "catalog.json"
    path.write_text(example, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path), "--format", "csv")
    assert (code, err) == (0, "")
    assert '\nEDGES_6_1,D4,"<2,4>",true,' in out


def test_verify_with_missing_catalog_exits_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "--catalog", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot load catalog" in err


@pytest.mark.parametrize(
    "catalog, message",
    [
        ([{"group": "Z4"}], "JSON object"),
        ({"instances": ["Z4"]}, "list of objects"),
        ({"instances": [{"group": "Z12", "subgroups": "12"}]}, "all-normal"),
        ({"instances": [{"group": "Z4"}], "theorems": "EDGES_6_1"}, "'theorems'"),
        ({"instances": [{"subgroups": "all-normal"}]}, "instance 0 has no 'group'"),
        ({"theorems": []}, "missing 'instances'"),
        (
            {"instances": [{"group": "Z4"}], "theorems": ["EDGES_6_1", "BOGUS"]},
            "error: cannot load catalog: unknown theorem id 'BOGUS'; valid ids: COMPLETE_3_1,"
            "CAYLEY_3_3,DEGREE_4_1,EULERIAN_4_2,HAMILTONIAN_4_4,GIRTH_5_3,BIPARTITE_TREE_5_2,"
            "PLANAR_5_4,EDGES_6_1,CLIQUE_6_4,PERFECT_6_5,CHROMATIC_6_6,KAPPA_6_7\n",
        ),
        (
            {"instances": [{"group": "Z4"}], "theorems": ["EULERIAN_4_2", "EULERIAN_4_2"]},
            "error: cannot load catalog: duplicate theorem id 'EULERIAN_4_2'\n",
        ),
        (
            {"instances": [{"group": "Z4"}], "theorems": []},
            "error: cannot load catalog: 'theorems' is empty; leave it out to run every theorem\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": "Z12", "subgroups": "3"}]},
            "error: cannot load catalog: instance 1 (Z12): 'subgroups' must be \"all-normal\" or a list,"
            " got '3'\n",
        ),
        (
            {"instances": []},
            "error: cannot load catalog: 'instances' is empty; a catalog needs at least one instance\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": "Z12", "subgroups": []}]},
            "error: cannot load catalog: instance 1 (Z12): 'subgroups' is empty;"
            " leave it out to run every proper normal subgroup\n",
        ),
        (
            {"instances": [{"group": "Z4", "subgroups": ["2"]}], "theorem": ["EDGES_6_1"]},
            "error: cannot load catalog: unknown key 'theorem'; valid keys: 'instances', 'theorems'\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": "Z12", "subgroup": ["6"]}]},
            "error: cannot load catalog: instance 1 (Z12): unknown key 'subgroup';"
            " valid keys: 'group', 'subgroups'\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": "Z12", "subgroups": ["4", 6]}]},
            "error: cannot load catalog: instance 1 (Z12): 'subgroups' must list selector strings"
            " such as \"1,4\", got 6\n",
        ),
        (
            {"instances": [{"group": "Z12", "subgroups": [True]}]},
            "error: cannot load catalog: instance 0 (Z12): 'subgroups' must list selector strings"
            " such as \"1,4\", got true\n",
        ),
        (
            {"instances": [{"group": "Z12", "subgroups": [None]}]},
            "error: cannot load catalog: instance 0 (Z12): 'subgroups' must list selector strings"
            " such as \"1,4\", got null\n",
        ),
        (
            {"instances": [{"group": "Z12", "subgroups": ["6", None, 4]}]},
            "error: cannot load catalog: instance 0 (Z12): 'subgroups' must list selector strings"
            " such as \"1,4\", got null\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": True}]},
            "error: cannot load catalog: instance 1: 'group' must be a spec string such as \"Z2xZ4\","
            " got true\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": 8}]},
            "error: cannot load catalog: instance 1: 'group' must be a spec string such as \"Z2xZ4\","
            " got 8\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": None}]},
            "error: cannot load catalog: instance 1: 'group' must be a spec string such as \"Z2xZ4\","
            " got null\n",
        ),
        (
            {"instances": [{"group": "Z4"}, {"group": ["S3"]}]},
            "error: cannot load catalog: instance 1: 'group' must be a spec string such as \"Z2xZ4\","
            " got [\"S3\"]\n",
        ),
    ],
)
def test_verify_with_malformed_catalog_exits_2(capsys, tmp_path, catalog, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load catalog") and message in err


@pytest.mark.parametrize("template", ["{}", '{{"instances": {}}}'], ids=["bare", "under-instances"])
def test_verify_refuses_a_deeply_nested_catalog(capsys, tmp_path, template):
    # Written raw: json.dumps cannot encode this depth.
    path = tmp_path / "catalog.json"
    path.write_text(template.format("[" * 100000 + "]" * 100000), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, out, err) == (2, "", "error: cannot load catalog: catalog JSON is nested too deeply\n")


LONG_KEY = "k" * 30000


@pytest.mark.parametrize(
    "text, key",
    [
        ('{"instances": [{"group": "Z4"}], "instances": [{"group": "Z6"}]}', "'instances'"),
        ('{"instances": [{"group": "Z4"}], "theorems": ["EDGES_6_1"], "theorems": ["GIRTH_5_3"]}',
         "'theorems'"),
        ('{"instances": [{"group": "Z4", "group": "Z6"}]}', "'group'"),
        (f'{{"instances": [{{"group": "Z4"}}], "{LONG_KEY}": 1, "{LONG_KEY}": 2}}', _head(LONG_KEY)),
    ],
    ids=["instances", "theorems", "group", "long"],
)
def test_verify_refuses_a_catalog_that_repeats_a_key(capsys, tmp_path, text, key):
    # Written raw: json.dumps cannot repeat a key. Decoded, only the last value would
    # be kept and run, so a repeat is refused as an unknown key is.
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert (code, out, err) == (2, "", f"error: cannot load catalog: duplicate key {key} in a catalog object\n")


@pytest.mark.parametrize(
    "argv",
    [("list-normal-subgroups", "E(2,8)"), ("analyze", "E(2,8)", "--subgroup-index", "0")],
)
def test_too_many_normal_subgroups_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "more than 4096 normal subgroups" in err


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    import nspg.harness
    from nspg.harness import InstanceResult, Report

    failing = Report(
        results=(
            InstanceResult(
                theorem="EDGES_6_1",
                group="Z4",
                subgroup="<2>",
                hypothesis_met=True,
                predicted=3,
                actual=4,
                verdict="FAIL",
            ),
        ),
        instance_count=1,
    )
    monkeypatch.setattr(nspg.harness, "run_catalog", lambda catalog: failing)
    code, out, _ = run_cli(capsys, "verify", "--format", "csv")
    assert code == 1
    assert out.splitlines()[1].endswith(",FAIL")


def test_build_json_round_trips_into_analyze(capsys):
    code, out, _ = run_cli(capsys, "build", "Z6", "--subgroup", "3", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    rebuilt = SimpleGraph(obj["vertices"], [tuple(e) for e in obj["edges"]])
    code, analyzed, _ = run_cli(capsys, "analyze", "Z6", "--subgroup", "3")
    expected = json.loads(analyzed)
    assert rebuilt.edge_count == expected["edge_count"]
    assert inv.clique_number(rebuilt)[0] == expected["clique_number"]
    assert inv.chromatic_number(rebuilt)[0] == expected["chromatic_number"]
    assert inv.vertex_connectivity(rebuilt)[0] == expected["vertex_connectivity"]
    assert inv.is_planar(rebuilt) == expected["is_planar"]


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "verify" in out


def test_runs_without_numpy():
    # A None entry in sys.modules makes any import of numpy raise ImportError.
    code = (
        "import sys; sys.modules['numpy'] = None; import nspg.cli; "
        "sys.exit(nspg.cli.main(['verify', '--theorems', 'COMPLETE_3_1']))"
    )
    src = str(Path(nspg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_all_names_exactly_the_public_bindings():
    # Read through dir and getattr: the package binds its public names lazily.
    public = {
        name
        for name in dir(nspg)
        if not name.startswith("_") and not inspect.ismodule(getattr(nspg, name))
    }
    assert len(set(nspg.__all__)) == len(nspg.__all__)
    assert set(nspg.__all__) == public | {"__version__"}
