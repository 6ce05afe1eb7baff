"""Order statistics with the benchmark's reporting rule.

A percentile is reported only when at least :data:`MIN_BEYOND` samples lie
beyond it, and always together with its sample count, so a p99 drawn from
200 samples cannot pass for a measured tail.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """A percentile was requested from too few samples to support it."""


@dataclass(frozen=True)
class Percentile:
    """One percentile of a sample population."""

    value: float
    samples: int
    beyond: int


def percentile(values: Sequence[float], fraction: float) -> Percentile:
    """Nearest-rank percentile of ``values`` that obeys the reporting rule.

    Raises :class:`InsufficientSamples` when fewer than :data:`MIN_BEYOND`
    samples lie beyond the rank (for p99 that means fewer than 1000 samples).
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must lie in (0, 1), got {fraction}")
    ordered = sorted(values)
    count = len(ordered)
    rank = max(0, math.ceil(fraction * count) - 1)
    beyond = count - rank - 1
    if count == 0 or beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{fraction * 100:g} needs {MIN_BEYOND} samples beyond it; "
            f"{count} samples leave {max(beyond, 0)}")
    return Percentile(value=ordered[rank], samples=count, beyond=beyond)


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 when nothing was counted."""
    return numerator / denominator if denominator else 0.0


__all__ = ["InsufficientSamples", "MIN_BEYOND", "Percentile", "median",
           "percentile", "ratio"]
