"""One workload in a fresh process, started by run.py with PYTHONPATH set to src/.

It times ``import nspg.cli``, then runs closed-loop passes over the workload's
commands: each calls ``nspg.cli.main(argv)`` in-process with stdout captured,
and the next starts only after the previous returns and its output is checked.
Untraced, the import and every command are timed by a host clock
(hostclock.py) that corrects for the speed the host gives the process.
It prints one JSON object as its last line of stdout.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/worker.py --probe        # only time the import
"""

import sys
import time

import hostclock

CLOCK = hostclock.HostClock()
if __name__ == "__main__":
    CLOCK.start()  # before the import, so that set-up is corrected too
_IMPORT_START = time.perf_counter()
import nspg.cli  # noqa: E402

_IMPORT_END = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

PREPARE = "prepare"  # command id of the spans recorded while preparing a workload


def run_command(command, tracer, command_id, clock):
    """One closed-loop command: returns (seconds, failure reason or None).

    The seconds are wall time, or the clock's corrected time if a clock is given.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    if tracer is not None:
        tracer.command = command_id
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = nspg.cli.main(list(command.argv))
            failure = None
        except Exception as exc:  # a crash is a failed command; the run goes on
            failure = f"raised {type(exc).__name__}: {exc}"
        end = time.perf_counter()
    seconds = end - start if clock is None else clock.seconds(start, end)
    return seconds, failure or command.check(rc, out.getvalue())


def run_pass(commands, order, tracer, pass_id, clock=None):
    """Returns ({command index: seconds}, failures)."""
    times, failures = {}, []
    for i in order:
        times[i], failure = run_command(commands[i], tracer, (pass_id, i), clock)
        if failure is not None:
            failures.append(f"{' '.join(commands[i].argv)}: {failure}")
    return times, failures


def run(name: str, seed: int, seconds: float, trace: bool, clock=None) -> dict:
    """Untraced passes are timed by the clock if one is given, traced ones never."""
    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.command = PREPARE
        with tracer.installed():
            workload = workloads.BUILDERS[name]()
    else:
        workload = workloads.BUILDERS[name]()
    failures = [f"prepare: {reason}" for reason in workload.prepared if reason is not None]
    attempted = len(workload.prepared)

    rng = random.Random(seed)
    order = list(range(len(workload.commands)))
    op_times = [[] for _ in order]  # untraced seconds of each command, one per pass
    walls, raw_walls, traced_walls = [], [], []
    start = time.perf_counter()
    # Passes repeat until the measured time is used up. There is at least one
    # untraced pass; a traced run alternates them with traced passes and has one.
    while not walls or (trace and not traced_walls) or time.perf_counter() - start < seconds:
        rng.shuffle(order)
        if trace and len(walls) > len(traced_walls):
            with tracer.installed():
                times, failed = run_pass(workload.commands, order, tracer, len(traced_walls))
            traced_walls.append(sum(times.values()))
        else:
            pass_start = time.perf_counter()
            times, failed = run_pass(workload.commands, order, None, None, clock)
            raw_walls.append(time.perf_counter() - pass_start)
            walls.append(sum(times.values()))
            for i, t in times.items():
                op_times[i].append(t)
        attempted += len(order)
        failures += failed

    result = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "walls": walls,
        "raw_walls": raw_walls,
        "op_times": op_times,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:10],
    }
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, lambda cid: cid != PREPARE, len(traced_walls))
        prepared = tracing.layer_metrics(tracer, lambda cid: cid == PREPARE, 1)
        key = "power_graphs.expand_quotient_graph.self_s"
        layers[key] = prepared[key]
        layers["trace.pass_s"] = (min(traced_walls), "s")
        layers["trace.overhead"] = (min(traced_walls) / min(walls) - 1.0, "ratio")
        result["layers"] = layers
        workloads.OUT.mkdir(parents=True, exist_ok=True)
        spans_file = workloads.OUT / f"spans-{name}.json"
        with open(spans_file, "w", encoding="utf-8") as fh:
            fields = ["name", "start", "end", "parent", "command", "size", "refused"]
            json.dump({"workload": name, "seed": seed, "fields": fields, "spans": tracer.spans}, fh)
        result["spans_file"] = str(spans_file.relative_to(workloads.ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = workloads.ROOT / "src"
    if not Path(nspg.cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported nspg from {nspg.cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    if not args.probe and args.workload is None:
        parser.error("--workload is required unless --probe is given")
    try:
        setup_s = CLOCK.seconds(_IMPORT_START, _IMPORT_END)
        if args.probe:
            result = {}
        elif args.trace:
            CLOCK.stop()
            result = run(args.workload, args.seed, args.seconds, True)
        else:
            result = run(args.workload, args.seed, args.seconds, False, CLOCK)
            result["chunk_s"] = statistics.median(CLOCK.spent)
    finally:
        CLOCK.stop()
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
