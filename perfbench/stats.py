"""Order statistics used by the benchmark's reports.

A timing is reported as a median plus the highest percentile that still
has at least :data:`MIN_TAIL_SAMPLES` samples beyond it, with the sample
count, so a tail figure is never read off a handful of points.
"""

from __future__ import annotations

import math
from typing import Sequence

MIN_TAIL_SAMPLES = 10
"""Samples that must lie beyond a reported tail percentile."""

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
"""Candidate tail percentiles, highest first."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``.

    Raises:
        ValueError: On an empty sample or ``q`` outside [0, 100].
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """The middle value (mean of the two middle values for even n)."""
    if not values:
        raise ValueError("median of an empty sample")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(n: int) -> float | None:
    """Highest percentile of :data:`TAIL_LADDER` with at least
    :data:`MIN_TAIL_SAMPLES` of ``n`` samples ranked beyond it; ``None``
    when even the median lacks them."""
    for q in TAIL_LADDER:
        per_mille = round(q * 10)
        rank = -(-per_mille * n // 1000)  # ceil, in integers
        if n - rank >= MIN_TAIL_SAMPLES:
            return q
    return None
