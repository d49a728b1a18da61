"""Tests of the benchmark itself: output checks, tracer wrappers, self times, contract."""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys

import nspg.cli
import nspg.harness
import nspg.subgroups
import pytest

import hostclock
import tracer as tracing
import worker
import workloads

BENCHMARK_JSON = workloads.ROOT / "BENCHMARK.json"


def _command(argv, expected):
    return workloads.Command(tuple(argv), workloads._exact(expected, "the test"))


def test_wrong_output_is_counted_as_failed():
    right = "[0] order=1 subgroup={e}\n[1] order=2 subgroup=<2>\n[2] order=4 subgroup=<1>\n"
    commands = [
        _command(["list-normal-subgroups", "Z4"], right),
        _command(["list-normal-subgroups", "Z4"], right.replace("order=2", "order=3")),
        _command(["list-normal-subgroups", "Z5x"], right),  # exits 2, counted too
    ]
    _, failures = worker.run_pass(commands, [0, 1, 2], None, None)
    assert len(failures) == 2
    assert "output differs" in failures[0] and "exit status 2" in failures[1]


def test_verify_large_rows_accept_only_recorded_refusals():
    expected = json.loads((workloads.EXPECTED / "verify_large.json").read_text())
    truth, seed = expected["truth"], expected["seed"]
    check = workloads._rows_check(truth, seed)
    assert check(0, "\n".join(seed) + "\n") is None
    assert check(0, "\n".join(truth) + "\n") is None
    refused = next(i for i, (s, t) in enumerate(zip(seed, truth)) if s != t)
    computed = next(i for i, (s, t) in enumerate(zip(seed, truth)) if s == t and i > 0)
    wrong = list(truth)
    wrong[computed] = wrong[computed].replace("PASS", "FAIL")
    assert "row" in check(0, "\n".join(wrong) + "\n")
    wrong = list(truth)
    wrong[refused] = wrong[refused].replace("true", "false")
    assert check(0, "\n".join(wrong) + "\n") is not None
    assert "exit status" in check(1, "\n".join(truth) + "\n")


def test_analyze_check_compares_values_and_validates_witnesses():
    spec, gens = workloads.LADDER[0]
    record = json.loads((workloads.EXPECTED / "analyze_ladder.json").read_text())[
        workloads.ladder_key(spec, gens)
    ]
    failure, adjacency = workloads._crosscheck(spec, gens, record)
    assert failure is None
    check = workloads._analyze_check(record, adjacency)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = nspg.cli.main(["analyze", spec, "--subgroup", gens])
    out = json.loads(buf.getvalue())
    assert check(rc, json.dumps(out)) is None

    filled = dict(out, is_perfect=record["fields"]["is_perfect"])
    del filled["skipped"]
    assert check(0, json.dumps(filled)) is None  # a refused field may be filled in
    assert "exit status" in check(3, json.dumps(filled))
    assert "edge_count" in check(rc, json.dumps(dict(out, edge_count=out["edge_count"] + 1)))
    newly = dict(out, is_planar=None, skipped=out["skipped"] + ["is_planar"])
    assert "seed computed" in check(rc, json.dumps(newly))
    bad_cut = dict(out, witnesses=dict(out["witnesses"], vertex_cut=[1]))
    assert "vertex_cut" in check(rc, json.dumps(bad_cut))
    coloring = list(out["witnesses"]["coloring"])
    coloring[0] = coloring[1]
    assert "coloring" in check(rc, json.dumps(dict(out, witnesses=dict(out["witnesses"], coloring=coloring))))


def _bindings():
    out = {}
    for module_name in tracing.MODULES:
        module = importlib.import_module(module_name)
        out.update({(module_name, k): v for k, v in vars(module).items()})
    for _, module_name, attr in tracing.TRACED:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            out[(cls_name, method)] = cls.__dict__[method]
    return out


def test_wrappers_are_removed_after_the_traced_run():
    before = _bindings()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.installed():
            assert nspg.cli.make_group is not before[("nspg.cli", "make_group")]
            assert nspg.harness.nsb_power_graph is not before[("nspg.harness", "nsb_power_graph")]
            assert nspg.subgroups.SubgroupSet.describe is not before[("SubgroupSet", "describe")]
            1 / 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_times_sum_to_the_traced_pass(tmp_path):
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps({"instances": [{"group": "D4", "subgroups": "all-normal"}]}))
    commands = [
        workloads.Command(argv, lambda rc, out: None)
        for argv in (
            ("analyze", "Z6", "--subgroup", "3"),
            ("list-normal-subgroups", "Z12"),
            ("verify", "--catalog", str(catalog), "--format", "json"),
        )
    ]
    tracer = tracing.Tracer()
    with tracer.installed():
        times, failures = worker.run_pass(commands, [0, 1, 2], tracer, 0)
    assert failures == []
    wall = sum(times.values())
    layers = tracing.layer_metrics(tracer, lambda cid: True, 1)
    self_total = sum(value for name, (value, unit) in layers.items() if name.endswith(".self_s"))
    roots = sum(s[tracing.END] - s[tracing.START] for s in tracer.spans if s[tracing.PARENT] < 0)
    assert self_total == pytest.approx(roots, rel=1e-9)
    assert self_total == pytest.approx(wall, rel=0.02, abs=1e-3)
    for name in ("cli", "harness.run_catalog", "subgroups.all_normal_subgroups", "invariants.vertex_connectivity"):
        assert layers[f"{name}.self_s"][0] > 0, name


def _run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(trace, section):
    spec = json.loads(BENCHMARK_JSON.read_text())
    proc = _run_bench(workloads.ROOT, "--workload", "verify-default", "--seed", "3", "--seconds", "0",
                      "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_fails_without_the_program(tmp_path):
    shutil.copy(BENCHMARK_JSON, tmp_path / "BENCHMARK.json")
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run_bench(tmp_path, "--workload", "verify-default", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_host_clock_removes_its_samples_and_scales_by_sampled_speed():
    clock = hostclock.HostClock()
    ref = hostclock.REF_CHUNK_S
    clock.starts = [0.0, 1.0, 2.0, 3.0]
    clock.spent = [ref, 2 * ref, 2 * ref, ref]
    # [0.5, 2.5) holds the samples at 1.0 and 2.0; speed is also sampled at 0.0 and 3.0.
    net = 2.0 - 4 * ref
    assert clock.seconds(0.5, 2.5) == pytest.approx(net * (1 + 0.5 + 0.5 + 1) / 4)
    # An interval with no sample of its own takes the speed on either side of it.
    assert clock.seconds(1.2, 1.4) == pytest.approx(0.2 * 0.5)
    with pytest.raises(RuntimeError):
        hostclock.HostClock().seconds(0.0, 1.0)
