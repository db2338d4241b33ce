"""Summary statistics shared by every workload."""

from __future__ import annotations

import math
from typing import Sequence

#: Percentiles a tail may be reported at, lowest first.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile needs at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def supported_tail(n: int) -> float:
    """The highest ladder percentile with ``TAIL_MIN_BEYOND`` samples beyond
    it among ``n`` samples, or 0.0 when even the median has fewer."""
    best = 0.0
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, with quartiles as ``statistics.quantiles(n=4)``
    gives them."""
    import statistics

    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else math.inf
