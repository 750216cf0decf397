"""Order statistics used to report timings.

A timing is reported as its median plus the highest percentile that has at
least ``MIN_BEYOND`` samples beyond it, so a tail figure is never read off
one or two slow samples.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_LADDER = (99.0, 95.0, 90.0, 80.0, 75.0)


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile (numpy's default method), q in [0, 100]."""
    xs = sorted(float(v) for v in values)
    if not xs:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def samples_beyond(n: int, q: float) -> int:
    """How many of n distinct samples lie above their q-th ``percentile``."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


def tail_percentile(n: int) -> float | None:
    """Highest percentile of ``TAIL_LADDER`` with ``MIN_BEYOND`` samples beyond it.

    Returns None when even the lowest rung does not qualify, in which case
    only the median is reported.
    """
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median with the quartiles of ``statistics.quantiles(n=4)``."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
