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
    ],
)
def test_library_errors_exit_2_with_their_message(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


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


@pytest.mark.parametrize("group, selector", [("Z4", "x"), ("S3", "1"), ("Z4", "1"), ("Z4", "-1")])
def test_catalog_selectors_fail_as_build_does(capsys, tmp_path, group, selector):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps({"instances": [{"group": group, "subgroups": [selector]}]}), encoding="utf-8")
    by_catalog = run_cli(capsys, "verify", "--catalog", str(path))
    by_build = run_cli(capsys, "build", group, "--subgroup", selector)
    assert by_catalog == by_build
    assert by_build[0] == 2 and by_build[1] == "" and by_build[2].startswith("error: ")


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


def test_verify_json_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "--theorems", "GIRTH_5_3,EDGES_6_1")
    assert code == 0
    obj = json.loads(out)
    assert obj["summary"]["GIRTH_5_3"]["fail"] == 0
    assert obj["summary"]["EDGES_6_1"]["pass"] > 0


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
    ],
)
def test_verify_with_malformed_catalog_exits_2(capsys, tmp_path, catalog, message):
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(catalog), encoding="utf-8")
    code, out, err = run_cli(capsys, "verify", "--catalog", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot load catalog") and message in err


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
    import nspg.cli
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
    monkeypatch.setattr(nspg.cli, "run_catalog", lambda catalog: failing)
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
    public = {
        name
        for name, value in vars(nspg).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(set(nspg.__all__)) == len(nspg.__all__)
    assert set(nspg.__all__) == public | {"__version__"}
