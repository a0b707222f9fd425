"""Arithmetic behind the reported numbers.

Medians and quartiles follow Python's `statistics` module (the default
"exclusive" quartile method), so a spread printed here matches one
computed from the same values with `statistics.quantiles(values, n=4)`.
"""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3); needs at least two values."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / statistics.median(values)


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of closed intervals (start, end)."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """A span's duration minus the part of it that its child spans cover."""
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    ]
    return (end - start) - covered(clipped)


def error_rate(attempted: int, failed: int) -> float:
    """Failed operations over operations attempted; the base must be >= 1."""
    if attempted < 1:
        raise ValueError("error rate needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside [0, attempted={attempted}]")
    return failed / attempted
