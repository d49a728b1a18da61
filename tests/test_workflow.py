from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def _job():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]


def test_tier1_job_is_bounded_and_leaves_no_file_behind():
    job = _job()
    assert job["timeout-minutes"] == 15
    assert job["steps"][-1]["run"] == 'test -z "$(git status --porcelain)"'


def test_default_report_runs_before_any_dependency_is_installed():
    runs = [step.get("run") for step in _job()["steps"]]
    stdlib_only = runs.index(
        "PYTHONPATH=src python -m nspg.cli verify --format csv | cmp - tests/golden/verify_default.csv"
    )
    installs = [i for i, run in enumerate(runs) if run and "pip install" in run]
    assert installs and stdlib_only < min(installs)
