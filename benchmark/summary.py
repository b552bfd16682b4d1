"""Order statistics used by the benchmark reports.

Timings are reported as a median plus the highest percentile that still has
at least ten samples beyond it, together with the sample count.  Run-to-run
spread is the interquartile range as a share of the median, computed the way
``statistics.quantiles(values, n=4)`` computes quartiles.
"""

from __future__ import annotations

import math
import statistics

# candidate percentiles for the tail report, highest first
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {p}")
    position = (len(ordered) - 1) * p / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def tail(values):
    """Highest percentile in TAIL_PERCENTILES with ten samples beyond it.

    Returns (percentile, value), or None when there are too few samples.
    """
    n = len(values)
    for p in TAIL_PERCENTILES:
        if n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND - 1e-9:
            return p, percentile(values, p)
    return None


def describe(values) -> dict:
    """Median, sample count and (when defined) the tail percentile."""
    out = {"n": len(values), "median": median(values)}
    high = tail(values)
    if high is not None:
        out[f"p{high[0]:g}"] = high[1]
    return out


def spread(values) -> float:
    """(Q3 - Q1) / median with quartiles from statistics.quantiles(n=4)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
