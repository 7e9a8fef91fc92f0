"""Machine-speed sampling, so that latencies are reported at a nominal speed.

On a shared machine the same call can run 40% slower for tens of seconds
at a time because of other tenants: on the shared 2-core x86-64 machine
the benchmark was defined on, one grid-k target took 0.30-0.53 s in eight
back-to-back calls, and whole 28 s runs differed by 38% in throughput.
While a pass runs, an interval timer interrupts the process every PERIOD_S
(between bytecodes, also inside long calls) and runs a fixed calibration
kernel: about 1 ms of the benchmark's own integer arithmetic, independent
of cubesum. The kernel's time is subtracted from the call it interrupted,
and each call's latency is scaled by NOMINAL_S over the median kernel time
within WINDOW_S of the call. Reported times are those of a machine on
which the kernel takes NOMINAL_S; raw times are kept beside them.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from statistics import median
from time import perf_counter

import arith

PERIOD_S = 0.1
WINDOW_S = 0.5
NOMINAL_S = 0.001


def kernel() -> int:
    x = 0
    for k in range(600):
        x += arith.norm(arith.cube((k * 7919 + 1, k * 104729 + 3)))
    return x + arith.is_prime(1_000_000_007) + arith.is_prime(998_244_353)


class Speedometer:
    """Context manager sampling the kernel time while it is active."""

    def __init__(self) -> None:
        self.times: list[float] = []  # start of each kernel run
        self.costs: list[float] = []  # its duration
        self.stolen = 0.0  # total time spent in the kernel so far

    def _tick(self, signum=None, frame=None) -> None:
        start = perf_counter()
        kernel()
        cost = perf_counter() - start
        self.times.append(start)
        self.costs.append(cost)
        self.stolen += cost

    def __enter__(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # a sample before the first call
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()  # and one after the last

    def scale(self, start: float, end: float) -> float:
        """NOMINAL_S over the median kernel time around [start, end]."""
        lo = bisect_left(self.times, start - WINDOW_S)
        hi = bisect_right(self.times, end + WINDOW_S)
        if lo >= hi:  # no sample close by: take the nearest one
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return NOMINAL_S / median(self.costs[lo:hi])
