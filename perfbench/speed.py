"""The machine's speed, sampled while the benchmark runs.

On a shared host the speed of one core swings by up to 2x within a
second, independently on each core, because other tenants contend for the
same physical cores.  Raw wall times of one workload then differ by 20-40%
from run to run.  A SpeedProbe interrupts the worker every 10 ms and times
a fixed pure-Python kernel.  A query's time in reference seconds is its
wall time, less the kernel runs inside it, times NOMINAL_S over the mean
kernel time sampled around it: the time the query would have taken on a
core where the kernel takes NOMINAL_S.  Raw wall times are kept alongside.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

INTERVAL_S = 0.010
NOMINAL_S = 200e-6  # the kernel on an uncontended core of a 2.0 GHz Xeon


def kernel() -> list:
    """Dictionary, tuple and sort work, like the package's monomial code."""
    table: dict = {}
    for i in range(400):
        key = (i % 17, i % 13)
        table[key] = table.get(key, 0) + i
    return sorted(table.items())


class SpeedProbe:
    """Kernel timings taken on SIGALRM; times are perf_counter seconds."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        kernel()
        self.at.append(start)
        self.took.append(perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reference(self, start: float, end: float) -> float:
        """Reference seconds of the interval [start, end]."""
        lo = bisect.bisect_left(self.at, start)
        hi = bisect.bisect_right(self.at, end)
        inside = sum(self.took[lo:hi])
        # an interval shorter than the sampling period borrows its neighbours
        near = self.took[max(0, lo - 2) : max(hi, lo + 2)]
        if not near:
            raise RuntimeError("no speed sample near the interval")
        return (end - start - inside) * NOMINAL_S * len(near) / sum(near)
