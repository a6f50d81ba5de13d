"""Host speed, measured with a fixed reference kernel between operations.

On a shared host the same operation can run 50-70% slower for minutes at a
time, and its speed changes from one second to the next, so a run of the
program's own code cannot average that out.  The timed loop therefore runs
`kernel()`, which shares no code with the program, between operations once
SAMPLE_EVERY seconds have passed since its last sample, and scales each
timing by REFERENCE_S / (the median kernel time within WINDOW_S seconds of
it).  A timing is then reported in the units it would have on a host where
the kernel takes REFERENCE_S.  A change to the program moves it in full, while a change in
the host's speed moves the kernel with it.  On a 2-vCPU VM, over eight
processes in a row, the raw times of two fixed commands differed by 17% and
24%, and their times over the kernel time next to them by 5% and 2%.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# Median kernel time on a 2-vCPU x86 VM at 2.1 GHz, Python 3.11, so that
# scaled timings read close to raw ones there.
REFERENCE_S = 0.005
SAMPLE_EVERY = 0.1
WINDOW_S = 2.0


def kernel() -> int:
    """Fixed pure-Python work of the kinds the program does: trial division
    of a big integer, Fraction arithmetic and string and dict churn."""
    n = 1_000_003 * 999_983 * 7
    found = sum(1 for d in range(3, 30_001, 2) if n % d == 0)
    x = Fraction(0)
    for i in range(1, 200):
        x += Fraction(i, i * i + 1) - Fraction(i, i * i + 3)
    table = {str(i): (i, [i]) for i in range(4_000)}
    return found + len(str(x)) + len(sorted(table))


class HostSpeed:
    """Kernel timings taken during a run, and the scaling they give."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        """Time the kernel once.  The collector is off meanwhile: a full
        collection would time the harness's heap, not the host."""
        gc.disable()
        try:
            start = time.perf_counter()
            kernel()
            self.samples.append((start, time.perf_counter() - start))
        finally:
            gc.enable()

    def due(self) -> bool:
        """One sample at a time, never back to back: a kernel run right
        after another finds its own code and data in cache and runs fast."""
        return not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_EVERY

    def scale(self, at: float) -> float:
        """REFERENCE_S over the median kernel time within WINDOW_S of `at`,
        or the nearest one if none is that close."""
        lo = bisect.bisect(self.samples, (at - WINDOW_S,))
        hi = bisect.bisect(self.samples, (at + WINDOW_S,))
        near = self.samples[lo:hi] or [min(self.samples, key=lambda s: abs(s[0] - at))]
        return REFERENCE_S / statistics.median(dt for _, dt in near)

    def median_s(self) -> float:
        return statistics.median(dt for _, dt in self.samples)
