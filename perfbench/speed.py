"""Host-speed monitor: scales measured times to one nominal host speed.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts, by up to a factor of two, over seconds to minutes as other load on
the host comes and goes.  CPU time drifts with it, so it is no steadier
than wall time, and a probe timed before and after a multi-second
operation misses the drift during it.

So while a run measures, `Monitor` keeps a probe process on the CPU that
every timed process is pinned to, at the lowest priority (nice 19: 2-3% of
that CPU while the timed process is busy).  The probe runs a fixed
pure-Python computation (`reference`, which does not use qc) over and over
and logs the CPU and wall time of each repetition.  Each measured interval
is then scaled by the host speed the probe saw during it:

    scaled = wall * NOMINAL_S / mean(probe CPU times logged within PAD_S of it)

Only repetitions that shared the CPU with a timed process count: their wall
time is many times their CPU time, since the probe gets a small share.  A
repetition that had the CPU to itself, between two timed processes, runs
with warm caches and takes about 40% less CPU time, so counting it would
make the scale depend on how long the gaps between operations are.  The
mean is used, not the median: a shared repetition's CPU time depends on
how many times it was preempted, and the median jumps between those
modes.  On verify-cli, scaling took the spread of one seed's operation
time (standard deviation over mean, 22 operations) from 0.12-0.15 to
0.04-0.05.

A scaled time is the wall time at the host speed under which one
repetition costs `NOMINAL_S`, about the median speed of a 2-vCPU x86_64
VM.  The reference mixes the kinds of work qc does (`Fraction`
arithmetic, comparisons, hashing frozensets into a dict), so the host's
drift slows both alike; a change to qc leaves it unchanged.

    python3 perfbench/speed.py CPU LOG PARENT_PID   (the probe; started by Monitor)
"""

from __future__ import annotations

import bisect
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# CPU seconds of one reference() repetition at nominal host speed
NOMINAL_S = 0.002
# probe samples this close to an interval count toward its speed
PAD_S = 0.25
# widen the window to at least this many samples
MIN_SAMPLES = 3
# a repetition whose wall time is at least this multiple of its CPU time
# shared the CPU with a timed process
SHARED_CPU = 2.0


class ProbeError(Exception):
    """The probe logged too little beside timed work to scale any time."""


def reference() -> tuple:
    """A fixed computation of about 2 ms; its result is returned so it is not skipped."""
    table = {}
    acc = Fraction(0)
    for i in range(160):
        a = Fraction(i % 13 + 1, i % 4 + 1)
        b = Fraction(i % 7, 3)
        c = min(a + b, Fraction(9, 2))
        key = frozenset((i % 11, i % 5))
        table[key] = table.get(key, Fraction(0)) + c
        if c <= a:
            acc += c
    return acc, len(table)


class Monitor:
    """The probe process, from `with` entry to exit, and the scaling of intervals.

    Intervals are (start, wall) pairs in `time.perf_counter()` seconds,
    which on Linux is CLOCK_MONOTONIC and so agrees between processes.
    """

    def __init__(self, log: Path):
        self.cpu = min(os.sched_getaffinity(0))
        self.log = log
        self._proc: subprocess.Popen | None = None

    def __enter__(self) -> "Monitor":
        self._proc = subprocess.Popen(
            [sys.executable, __file__, str(self.cpu), str(self.log), str(os.getpid())],
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc) -> None:
        self._proc.terminate()
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def pin(self) -> None:
        """`preexec_fn` for the timed processes: run on the probed CPU."""
        os.sched_setaffinity(0, {self.cpu})

    def scale(self, intervals) -> list[float]:
        """Each interval's wall time at nominal host speed."""
        times, costs = [], []
        with open(self.log, encoding="utf-8") as fh:
            for line in fh:
                fields = line.split()
                if len(fields) == 3 and line.endswith("\n"):
                    end, cpu, wall = map(float, fields)
                    if wall >= SHARED_CPU * cpu:
                        times.append(end)
                        costs.append(cpu)
        if len(times) < MIN_SAMPLES:
            raise ProbeError(f"the speed probe logged {len(times)} samples beside timed work")
        out = []
        for start, wall in intervals:
            lo = bisect.bisect_left(times, start - PAD_S)
            hi = bisect.bisect_right(times, start + wall + PAD_S)
            if hi - lo < MIN_SAMPLES:
                lo, hi = max(0, lo - MIN_SAMPLES), min(len(times), hi + MIN_SAMPLES)
            out.append(wall * NOMINAL_S / statistics.fmean(costs[lo:hi]))
        return out


def _probe(cpu: int, log: str, parent: int) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    with open(log, "w", encoding="utf-8", buffering=1) as out:
        # stop with the benchmark, even if it was killed without a chance to stop us
        while os.getppid() == parent:
            c0, w0 = time.thread_time(), time.perf_counter()
            reference()
            cpu, end = time.thread_time() - c0, time.perf_counter()
            out.write(f"{end:.6f} {cpu:.9f} {end - w0:.6f}\n")


if __name__ == "__main__":
    _probe(int(sys.argv[1]), sys.argv[2], int(sys.argv[3]))
