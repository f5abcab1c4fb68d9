"""Percentiles and run-to-run spread, as the benchmark reports them."""

from __future__ import annotations

import statistics


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between order statistics.

    Matches numpy's default method: rank ``q/100 * (n - 1)`` in the sorted
    sample, interpolated between its two neighbours.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 100:
        raise ValueError("q must lie in [0, 100]")
    ordered = sorted(values)
    rank = q / 100 * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, quartile distance / median).

    Quartiles are ``statistics.quantiles(values, n=4)``, its default
    (exclusive) method.
    """
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")
