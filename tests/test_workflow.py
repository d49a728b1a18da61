from pathlib import Path

import yaml

import pinned_outputs

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tier1.yml"
PINNED_OUTPUTS = "PYTHONPATH=src python -W error tests/pinned_outputs.py"  # a warning fails the step


def _job():
    return yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]


def test_tier1_job_is_bounded_and_leaves_no_file_behind():
    job = _job()
    assert job["timeout-minutes"] == 15
    assert job["steps"][-1]["run"] == 'test -z "$(git status --porcelain)"'


def test_no_tracked_file_matches_gitignore():
    # Build and run leftovers committed by mistake; the last step only sees what the tests write.
    runs = [step.get("run") for step in _job()["steps"]]
    assert 'test -z "$(git ls-files -ci --exclude-standard)"' in runs


def _runs_before_any_install(command):
    runs = [step.get("run") for step in _job()["steps"]]
    installs = [i for i, run in enumerate(runs) if run and "pip install" in run]
    return bool(installs) and runs.index(command) < min(installs)


def test_pinned_outputs_are_checked_before_any_dependency_is_installed():
    # Every row of tests/pinned_outputs.py, with the standard library alone, on every CI Python.
    assert _runs_before_any_install(PINNED_OUTPUTS)


def _pinned_before_any_install(*rows):
    """Whether PINS holds each (command, expected) row and CI checks PINS before any install."""
    return all(row in pinned_outputs.PINS for row in rows) and _runs_before_any_install(PINNED_OUTPUTS)


def test_default_report_runs_before_any_dependency_is_installed():
    assert _pinned_before_any_install(("verify --format csv", "verify_default.csv"))


def test_analyze_output_is_checked_before_any_dependency_is_installed():
    # GraphInvariants' JSON form with the standard library alone, on every CI Python.
    assert _pinned_before_any_install(("analyze Z6 --subgroup 3", "analyze_z6_subgroup3.json"))


def test_verify_json_digest_is_checked_before_any_dependency_is_installed():
    assert _pinned_before_any_install(
        ("verify --format json", (832509, "e8d6b0bf80ccf22be10a1b067c50ba42d98e00de5436bdf6291fa12770c7cb0b"))
    )


def test_normal_subgroup_digests_are_checked_before_any_dependency_is_installed():
    # bench/expected leaves these two enumerations out.
    assert _pinned_before_any_install(
        ("list-normal-subgroups S5", (90, "c6c39614964baa2578fc91e37fd6a9f0869a7cdd9daf06aa7d0ab897001591f8")),
        ("list-normal-subgroups E(2,5)",
         (11589, "6c319e914f75c4210c7e5a8676166c01512affecc390150dfcaf8532cae00d4f")),
    )


def test_e13_2_power_graph_digest_is_checked_before_any_dependency_is_installed():
    # Its labels pin the separator between E(p,k) digits past p = 10.
    assert _pinned_before_any_install(
        ("power-graph E(13,2)", (37473, "43bc919ea627ba5de803cd38a3ecf9dc960fed1a3d15d71a6b8954200d45c5f4"))
    )


def test_long_walk_power_graph_digests_are_checked_before_any_dependency_is_installed():
    assert _pinned_before_any_install(
        ("power-graph Z256", (1084456, "7988f677d2ed0d565238a6041c146e8a682d5df797c54f1ed7a1dcf2e5a3b6b4")),
        ("power-graph Z2xZ64", (131182, "002bd25a5ca2a382a63c8a7a0c7414de86d56f328a730ec219bd7c679d468c26")),
    )


def test_non_abelian_graph_digests_are_checked_before_any_dependency_is_installed():
    assert _pinned_before_any_install(
        ("power-graph S5", (10488, "5f346b2324fe6550396b2f31a0134f8984150f842bdcf34c5058943b84bd853e")),
        ("build D64 --subgroup 2", (51395, "c6e130d6219f0990c42e6ca0772dbb297a54c5ffd1d8cfc0f5e075ddb7221fbd")),
    )


def test_folded_product_power_graph_digest_is_checked_before_any_dependency_is_installed():
    # A non-abelian middle factor: a generator lifted onto the wrong digit shows in the table.
    assert _pinned_before_any_install(
        ("power-graph Z2xS4xZ3", (21665, "03f5edc8e778a0a7d677abca21e0327d6fd09db50fea463be2ded2b240e402ba"))
    )


def test_analyze_table_digest_is_checked_before_any_dependency_is_installed():
    # The table format beyond test_analyze_table_format's K5: every witness, a graph not complete.
    assert _pinned_before_any_install(
        ("analyze Q8xZ3 --subgroup-index 1 --format table",
         (955, "b81f90ba1c50222993f2f514f5f490f2a2eb2a9abc2b81d505cda27bbd093b7d"))
    )


def test_verify_large_json_digest_is_checked_before_any_dependency_is_installed():
    # On the bench's verify-large catalog, which pinned_outputs writes outside the checkout.
    assert pinned_outputs.VERIFY_LARGE == {"instances": [
        {"group": "Z256", "subgroups": ["128"]},
        {"group": "E(2,8)", "subgroups": ["1,2,4,8,16,32,64"]},
        {"group": "Z2xZ64", "subgroups": ["64"]},
        {"group": "Q8xQ8", "subgroups": ["1"]},
    ]}
    assert _pinned_before_any_install(
        ("verify --catalog verify_large.json --format json",
         (52893, "0a439b8aa7ee01544f3fad0023be054717cf51b2086e5e0bf0464602ecec84c1"))
    )


def test_cli_import_graph_is_checked_before_any_dependency_is_installed():
    # The modules tests/test_imports.py pins for import nspg.cli, on every CI Python.
    assert _runs_before_any_install(
        "PYTHONPATH=src python -c \"import sys, nspg.cli;"
        " loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'nspg'); print(loaded);"
        " assert loaded == ['nspg', 'nspg.cli', 'nspg.groups', 'nspg.subgroups']\""
    )


def test_benchmark_checks_its_outputs_before_the_clean_tree_check():
    # One checked pass of every workload; it writes only under the ignored bench/out/.
    runs = [step.get("run") for step in _job()["steps"]]
    assert runs.index("python bench/run.py --seconds 0") == len(runs) - 2


def _run_of_step(name):
    """The command of the one CI step with this name; steps that run the same command
    under different checks are told apart by their names."""
    steps = [step for step in _job()["steps"] if step.get("name") == name]
    assert len(steps) == 1
    return steps[0]["run"]


def test_hamiltonicity_refusal_on_d10xz6_is_bounded_before_any_dependency_is_installed():
    # Four graphs of 119-120 vertices that the backtracking alone did not decide in 8 s.
    run = _run_of_step("Hamiltonicity on D10xZ6 is refused without the exponential search")
    assert "analyze D10xZ6" in run
    assert "for i in 0 1 2 3" in run and "NSPG_BUDGET=200" in run and "timeout 60" in run
    assert 'test "$code" = 3' in run and "'\"is_hamiltonian\": false'" in run
    assert _runs_before_any_install(run)


def test_normal_subgroups_of_e35_are_listed_before_any_dependency_is_installed():
    # 2,664 subgroups of order 243; a walk that joins every subgroup with every closure took twice as long.
    run = _run_of_step("All 2,664 normal subgroups of E(3,5) are listed within a minute")
    assert "list-normal-subgroups 'E(3,5)'" in run
    assert "timeout 60" in run and 'test "$code" = 0' in run and 'test "$lines" = 2664' in run
    assert _runs_before_any_install(run)


def test_broken_pipe_status_is_checked_before_any_dependency_is_installed():
    # A reader that takes one line of 2,664 and closes the pipe, as `| head -1` does.
    run = _run_of_step("A reader that closes the pipe early gets exit 141 and no traceback")
    assert "| head -1" in run
    assert 'list-normal-subgroups "E(3,5)"' in run and "timeout 60" in run and "${PIPESTATUS[0]}" in run
    assert 'test "$(tail -1 <<< "$out")" = "exit 141"' in run and 'test ! -s "$err"' in run
    assert 'test "$(wc -l <<< "$out")" = 2' in run
    assert _runs_before_any_install(run)


def test_installed_console_script_is_checked_between_the_tests_and_the_benchmark():
    # [project.scripts] and package discovery: no other step installs the package itself.
    runs = [step.get("run") for step in _job()["steps"]]
    run = _run_of_step("The installed nspg console script runs")
    assert "python -m pip install .\n" in run and "installed=$(nspg list-groups)" in run
    assert '"$(PYTHONPATH=src python -m nspg.cli list-groups)"' in run and 'test -n "$installed"' in run
    assert runs.index(_run_of_step("Tier-1 tests")) + 1 == runs.index(run) == len(runs) - 3


def test_tier1_step_prints_the_ten_slowest_tests():
    # Informational only: each Python's log shows whether any test nears 3 s; it gates nothing.
    assert _run_of_step("Tier-1 tests").endswith(" --durations=10")
