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


def test_benchmark_checks_its_outputs_before_the_clean_tree_check():
    # One checked pass of every workload; it writes only under the ignored bench/out/.
    runs = [step.get("run") for step in _job()["steps"]]
    assert runs.index("python bench/run.py --seconds 0") == len(runs) - 2
