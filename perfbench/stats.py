"""Summary statistics the benchmark reports for a list of samples."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["median", "quartiles", "tail_percentile", "summarize"]

#: percentiles the tail rule may report, lowest first
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples a reported percentile must leave beyond it
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no samples")
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives."""
    if not values:
        raise ValueError("quartiles of no samples")
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ``MIN_BEYOND`` samples beyond it.

    Percentiles are nearest-rank: the ``p``-th is the sample at rank
    ``ceil(p/100 * n)`` of the sorted list, and the samples beyond it are
    the ``n - rank`` above that rank.  Returns ``(p, value)``, or ``None``
    when even the median leaves fewer than ``MIN_BEYOND`` samples beyond.
    """
    n = len(values)
    ordered = sorted(values)
    best = None
    for p in PERCENTILES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            best = (p, float(ordered[rank - 1]))
    return best


def summarize(values: Sequence[float]) -> dict:
    """Median, quartiles, tail percentile and sample count of ``values``."""
    q1, q2, q3 = quartiles(values)
    tail = tail_percentile(values)
    return {"n": len(values), "median": q2, "q1": q1, "q3": q3,
            "tail": None if tail is None else {"p": tail[0], "value": tail[1]}}
