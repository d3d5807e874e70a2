"""Summary statistics the benchmark reports: medians, the tail rule, and
the host-speed calibration the timings are rescaled by.

Pure functions over lists of floats (numpy only inside ``calibrate``),
so the tests can exercise them without the program under test.
"""

from __future__ import annotations

import math
import statistics
import time

#: Candidate tail percentiles, highest first.  The reported tail is the
#: first of these with at least :data:`TAIL_MIN_BEYOND` samples beyond it.
TAIL_CANDIDATES = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """The ``p``-th percentile by linear interpolation between order
    statistics (numpy's default ``"linear"`` method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the ``p``-th
    percentile's rank (``n`` minus the ceiling of ``n * p / 100``)."""
    return n - math.ceil(n * p / 100.0 - 1e-9)


def tail(values, candidates=TAIL_CANDIDATES, min_beyond: int = TAIL_MIN_BEYOND):
    """The highest supported tail percentile of a sample.

    Returns ``(p, value, beyond)`` for the highest ``p`` in ``candidates``
    with at least ``min_beyond`` samples beyond it, or ``None`` when the
    sample supports none of them — a caller flags that rather than print
    a tail the sample cannot back.
    """
    n = len(values)
    for p in sorted(candidates, reverse=True):
        beyond = samples_beyond(n, p)
        if beyond >= min_beyond:
            return p, percentile(values, p), beyond
    return None


def tail_at(values, p: float, min_beyond: int = TAIL_MIN_BEYOND):
    """``(value, beyond)`` at a fixed percentile ``p`` when the sample
    supports it, else ``None``."""
    beyond = samples_beyond(len(values), p)
    if not values or beyond < min_beyond:
        return None
    return percentile(values, p), beyond


def median(values) -> float:
    return float(statistics.median(values))


def calibrate(reps: int = 40) -> float:
    """Median milliseconds of a fixed CPU kernel (interpreter loop, array
    arithmetic, a small matmul): the host's current speed, independent of
    the program under test."""
    import numpy as np

    a = np.arange(1 << 16, dtype=np.float64)
    m = np.full((64, 64), 1.0 / 64)
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        b = a
        for _ in range(10):
            b = np.sqrt(b * b + 1.0)
        p = m
        for _ in range(10):
            p = p @ m
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)
