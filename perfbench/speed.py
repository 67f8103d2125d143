"""
Machine speed, measured by a fixed pure-Python loop.

The benchmark runs on shared 2-core machines whose speed drifts by 20-50%
within minutes; on one such box the pass times of one workload spread by
15-20% (quartile distance over the median) while the same passes divided
by this loop's time spread by 5-9%.  So every timing the benchmark reports
is given in seconds at the reference speed: the measured time times
``REFERENCE_S`` over the median loop time measured around it.  The loop
does not touch the program, so a change to the program moves the scaled
timings as much as the raw ones.  Raw timings stay in the run record.
"""

from __future__ import annotations

import statistics
import time

# the loop's time on a quiet 2-core x86-64 box with CPython 3.11
REFERENCE_S = 0.010


def loop_s() -> float:
    """Seconds one run of the calibration loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(150_000):
        s += i * i % 7
    return time.perf_counter() - t0


def factor(samples: list[float]) -> float:
    """Scale from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
