"""Summary statistics shared by the runner, the spread check and the tests."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)`` of the tail of ``values``.

    The tail is the highest order statistic with at least ``TAIL_BEYOND``
    samples above it, at percentile ``100 * (n - 10) / n``.  With 20 or fewer
    samples that statistic lies at or below the median, so the maximum is
    reported instead, at percentile 100; the sample count says which case
    applies.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n > 2 * TAIL_BEYOND:
        i = n - TAIL_BEYOND - 1
        return float(xs[i]), 100.0 * (i + 1) / n, n
    return float(xs[-1]), 100.0, n


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")
