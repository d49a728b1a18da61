from pathlib import Path

import yaml

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"


def test_tier1_job_is_bounded_and_leaves_no_file_behind():
    job = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]
    assert job["timeout-minutes"] == 15
    assert job["steps"][-1]["run"] == 'test -z "$(git status --porcelain)"'
