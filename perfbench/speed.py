"""Machine-speed calibration for timings on a shared machine.

A shared virtual machine runs the same code at different speeds from one
stretch to the next: on the 2-vCPU machine the baseline was taken on,
speed flips between levels up to 2x apart, in phases of a tenth of a
second to minutes, and CPU time tracks wall time through them, so they
are not steal time and no in-run statistic over raw timings removes a
whole run that falls into a slow phase.

The benchmark therefore times a fixed piece of reference work between
requests, at least every `CHUNK_S` seconds, and scales each raw timing by
``ref / calibration``, the calibration being the mean of the two that
bracket the timing.  The result is the time the request would take on a
machine where the reference work takes ``ref``, its typical time inside
benchmark runs on the baseline machine, so scaled figures are of the size
of unscaled ones there.  The reference work is owned by the benchmark and
calls no supertrop code, so no change to the library can make it faster
or slower.  Phases slow different work by different amounts, so there
are two kinds:

* `calibrate`: pure Python of the kinds supertrop does (Fraction
  arithmetic, dicts, strings, sorting), for requests served in-process
  and for the in-process part of set-up;
* `calibrate_start`: starting a bare interpreter, for CLI requests, whose
  latency is mostly a child's start.  On the baseline machine CLI
  latency moves with it one for one, but only about 0.6 times as much
  as with `calibrate`.

The two vCPUs of such a machine change speed independently, so a
calibration only tracks the work when both run on the same vCPU.
`pin_to_one_cpu` keeps the benchmark and every child it starts on one
vCPU; one child runs at a time while the benchmark waits for it, so they
never compete for it.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
from fractions import Fraction
from time import perf_counter

REF_CAL_S = 0.00045
REF_START_S = 0.018
CHUNK_S = 0.1
REPS = 5


def pin_to_one_cpu() -> None:
    """Run this process, and the children it starts, on one allowed CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _work() -> int:
    acc = Fraction(0)
    seen: dict[int, str] = {}
    for i in range(1, 121):
        acc += Fraction(i % 97 - 40, i % 13 + 1)
        seen[i] = str(acc.numerator % 1000)
    return len(sorted(seen.values())) + (acc > 0)


def calibrate() -> float:
    """Fastest of `REPS` runs of the in-process reference work, in seconds."""
    times = []
    for _ in range(REPS):
        start = perf_counter()
        _work()
        times.append(perf_counter() - start)
    return min(times)


def calibrate_start() -> float:
    """Seconds to start and stop a bare interpreter (no site, no imports)."""
    start = perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return perf_counter() - start


class Speedometer:
    """Scales raw timings by the calibrations taken around them.

    `tick()` between requests calibrates when `CHUNK_S` seconds have
    passed since the last calibration and settles the timings recorded
    since then with the mean of the two calibrations that bracket them.
    """

    def __init__(self, cal=calibrate, ref: float = REF_CAL_S):
        self.cal, self.ref = cal, ref
        self.last = cal()
        self.since = perf_counter()
        self.pending: list[tuple[list, float]] = []
        self.cals = [self.last]

    def record(self, into: list, raw: float) -> None:
        """Append ``raw`` to ``into``, scaled, at the next calibration."""
        self.pending.append((into, raw))

    def tick(self, force: bool = False) -> None:
        if not force and perf_counter() - self.since < CHUNK_S:
            return
        now = self.cal()
        factor = self.ref / ((self.last + now) / 2)
        for into, raw in self.pending:
            into.append(raw * factor)
        self.pending.clear()
        self.last, self.since = now, perf_counter()
        self.cals.append(now)

    def scale(self) -> float:
        """The median calibration factor, for timings not bracketed one by one."""
        return self.ref / statistics.median(self.cals)
