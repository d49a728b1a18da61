from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _job():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]


def test_tier1_job_is_bounded_and_leaves_no_file_behind():
    job = _job()
    assert job["timeout-minutes"] == 15
    assert job["steps"][-1]["run"] == 'test -z "$(git status --porcelain)"'


def _runs_before_any_install(command):
    runs = [step.get("run") for step in _job()["steps"]]
    installs = [i for i, run in enumerate(runs) if run and "pip install" in run]
    return bool(installs) and runs.index(command) < min(installs)


def test_default_report_runs_before_any_dependency_is_installed():
    assert _runs_before_any_install(
        "PYTHONPATH=src python -m nspg.cli verify --format csv | cmp - tests/golden/verify_default.csv"
    )


def test_analyze_output_is_checked_before_any_dependency_is_installed():
    # GraphInvariants' JSON form with the standard library alone, on every CI Python.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -m nspg.cli analyze Z6 --subgroup 3 | cmp - tests/golden/analyze_z6_subgroup3.json"
    )


def test_verify_json_digest_is_checked_before_any_dependency_is_installed():
    # The digest test_default_verify_json_is_pinned_by_its_digest pins.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -m nspg.cli verify --format json | sha256sum"
        " | grep -x 'e8d6b0bf80ccf22be10a1b067c50ba42d98e00de5436bdf6291fa12770c7cb0b  -'"
    )


def test_cli_import_graph_is_checked_before_any_dependency_is_installed():
    # The modules tests/test_imports.py pins for import nspg.cli, on every CI Python.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -c \"import sys, nspg.cli;"
        " loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'nspg'); print(loaded);"
        " assert loaded == ['nspg', 'nspg.cli', 'nspg.groups', 'nspg.subgroups']\""
    )


def test_normal_subgroup_digests_are_checked_before_any_dependency_is_installed():
    # The digests test_list_normal_subgroups_is_pinned_by_its_digest pins; bench/expected
    # leaves these two enumerations out.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -m nspg.cli list-normal-subgroups S5 | sha256sum"
        " | grep -x 'c6c39614964baa2578fc91e37fd6a9f0869a7cdd9daf06aa7d0ab897001591f8  -'\n"
        "PYTHONPATH=src python -m nspg.cli list-normal-subgroups \"E(2,5)\" | sha256sum"
        " | grep -x '6c319e914f75c4210c7e5a8676166c01512affecc390150dfcaf8532cae00d4f  -'\n"
    )


def test_e13_2_power_graph_digest_is_checked_before_any_dependency_is_installed():
    # The digest test_power_graph_of_e13_2_is_pinned_by_its_digest pins; its labels
    # pin the separator between E(p,k) digits past p = 10.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -m nspg.cli power-graph \"E(13,2)\" | sha256sum"
        " | grep -x '43bc919ea627ba5de803cd38a3ecf9dc960fed1a3d15d71a6b8954200d45c5f4  -'"
    )


def test_long_walk_power_graph_digests_are_checked_before_any_dependency_is_installed():
    # The digests test_power_graph_is_pinned_by_its_digest pins.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -m nspg.cli power-graph Z256 | sha256sum"
        " | grep -x '7988f677d2ed0d565238a6041c146e8a682d5df797c54f1ed7a1dcf2e5a3b6b4  -'\n"
        "PYTHONPATH=src python -m nspg.cli power-graph Z2xZ64 | sha256sum"
        " | grep -x '002bd25a5ca2a382a63c8a7a0c7414de86d56f328a730ec219bd7c679d468c26  -'\n"
    )


def test_benchmark_checks_its_outputs_before_the_clean_tree_check():
    # One checked pass of every workload; it writes only under the ignored bench/out/.
    runs = [step.get("run") for step in _job()["steps"]]
    assert runs.index("python bench/run.py --seconds 0") == len(runs) - 2
