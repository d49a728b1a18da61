"""Timings corrected for the speed the host gives this process, on a shared machine.

On a shared VM the host slows a single-threaded process by up to 1.7x, in
episodes from milliseconds to minutes long, and reports no steal time, so
neither wall time nor CPU time of a run repeats. A HostClock samples that
speed while the program runs: every PERIOD_S a SIGALRM handler, in the
measured thread itself, times one fixed calibration chunk. The program's time
in an interval, less the time spent in the handler, is then scaled by the
mean speed sampled over that interval (REF_CHUNK_S over the chunk's time), so
that a timing reads as seconds on a host of a fixed speed. A change to the
program moves the scaled time; a change in host speed moves both the program
and the chunk, and cancels.

The clock uses SIGALRM and ITIMER_REAL, so only one can run in a process, in
its main thread.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.025
# The scale of every corrected timing: a timing reads as the seconds the
# program would take where one chunk takes this long. It is near the chunk's
# usual time on a 2-vCPU x86-64 Linux VM with CPython 3.10 (0.75 to 1.5 ms as
# other tenants come and go); it only has to be the same on both sides of a
# comparison.
REF_CHUNK_S = 0.001


def chunk() -> int:
    """Fixed interpreted work of the program's kind: dict, set and integer operations."""
    acc = 0
    for r in range(15):
        table = {}
        for i in range(300):
            table[i] = (i * 37 + r) % 257
        seen = set()
        for k, v in table.items():
            if v not in seen:
                seen.add(v)
                acc += k ^ v
        acc += len(sorted(seen, reverse=True))
    return acc


class HostClock:
    def __init__(self) -> None:
        self.starts: list[float] = []  # perf_counter() when each sample began
        self.spent: list[float] = []  # seconds each sample took
        self._busy = False

    def _sample(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        chunk()
        self.starts.append(start)
        self.spent.append(time.perf_counter() - start)
        self._busy = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def seconds(self, start: float, end: float) -> float:
        """Corrected seconds of the program's work between two perf_counter() readings."""
        lo, hi = bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)
        net = end - start - sum(self.spent[lo:hi])
        # Speed over the interval: its own samples plus one on each side, so a
        # short interval still has two.
        near = self.spent[max(lo - 1, 0) : hi + 1]
        if not near:
            raise RuntimeError("the host clock took no samples")
        return net * sum(REF_CHUNK_S / s for s in near) / len(near)
