"""Order statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.
TAIL_LADDER = (99.99, 99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def nearest_rank(sorted_values: list[float], p: float) -> float:
    """The p-th percentile by the nearest-rank rule."""
    rank = max(1, math.ceil(p / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - max(1, math.ceil(p / 100 * n))


def tail_percentile(n: int) -> float:
    """The highest ladder percentile with at least MIN_BEYOND of n samples
    beyond it."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")


def p50_and_tail(values: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile) of one run's op latencies."""
    ordered = sorted(values)
    p = tail_percentile(len(ordered))
    return statistics.median(ordered), nearest_rank(ordered, p), p


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
