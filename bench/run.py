"""The nspg benchmark: run one workload, or all four in turn, and print every metric.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own fresh worker process (worker.py), after a few
import-only probe processes that time set-up. With --trace 0 it prints the
end-to-end metrics, with --trace 1 the per-layer ones; the last line of stdout
is one JSON object. The exit status is 1 if any output check failed, 2 if the
checkout is incomplete.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostclock
import workloads

WORKER = workloads.ROOT / "bench" / "worker.py"
REQUIRED = (workloads.ROOT / "src" / "nspg" / "cli.py", workloads.GOLDEN_VERIFY)
SETUP_PROBES = 8  # import-only processes; with the worker's own import, set-up is a median of nine
RUN_LIMIT_S = 170.0  # a workload's processes must all end within this time


def spawn(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, PYTHONPATH=str(workloads.ROOT / "src"), PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=workloads.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Returns {"attempted", "failed", "failures", "metrics": {name: (value, unit)}}."""
    deadline = time.monotonic() + RUN_LIMIT_S
    args = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        result = spawn(args, deadline)
        out = {k: result[k] for k in ("attempted", "failed", "failures")}
        out["metrics"] = {k: tuple(v) for k, v in result["layers"].items()}
        out["notes"] = [f"spans written to {result['spans_file']}"]
        return out
    setups = [spawn(["--probe"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    result = spawn(args, deadline)
    setups.append(result["setup_s"])
    out = {k: result[k] for k in ("attempted", "failed", "failures")}
    # Times are corrected for host speed (hostclock.py); each metric is a
    # median over the run's passes.
    walls = result["walls"]
    slowest = [max(times[p] for times in result["op_times"]) for p in range(len(walls))]
    q1, median, q3 = quartiles(result["raw_walls"])
    out["metrics"] = {
        "wall_s": (statistics.median(walls), "s"),
        "slowest_op_s": (statistics.median(slowest), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    out["notes"] = [
        f"uncorrected pass time quartiles {q1:.4f} / {median:.4f} / {q3:.4f} s over n={len(walls)} passes",
        f"host speed: calibration chunk median {result['chunk_s'] * 1e3:.3f} ms "
        f"against {hostclock.REF_CHUNK_S * 1e3:.3f} ms reference",
        f"setup_s median of {len(setups)} fresh imports: " + " ".join(f"{s:.4f}" for s in setups),
    ]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(workloads.BUILDERS), help="default: all, in turn")
    parser.add_argument("--seed", type=int, default=0, help="permutes command order within passes")
    parser.add_argument("--seconds", type=float, default=15.0, help="measured time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [str(p) for p in REQUIRED if not p.is_file()]
    if missing:
        print(f"error: {', '.join(missing)} not found; run from a checkout", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(workloads.BUILDERS)
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
            print(f"error: workload {name}: {exc}", file=sys.stderr)
            return 1
        attempted += res["attempted"]
        failed += res["failed"]
        print(f"== {name} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
        for metric, (value, unit) in res["metrics"].items():
            print(f"  {metric:48s} {value:>14.6g} {unit}")
            key = metric if args.workload else f"{name}.{metric}"
            metrics[key] = {"value": value, "unit": unit}
        print(f"  {'fail_ratio':48s} {res['failed'] / res['attempted']:>14.6g} "
              f"({res['failed']} of {res['attempted']} operations)")
        for note in res["notes"]:
            print(f"  # {note}")
        for failure in res["failures"]:
            print(f"  FAILED {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
