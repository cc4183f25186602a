"""Median and tail of a sample, the way every timing is reported.

The tail is the highest percentile of :data:`LADDER` that still has at
least :data:`MIN_BEYOND` samples above it; a sample too small for any of
them reports its maximum.
"""

from __future__ import annotations

import math

from repro.serving.metrics import percentile

LADDER = (99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def tail(values) -> tuple[str, float]:
    """``(label, value)`` of the sample's tail, ``("-", 0.0)`` if empty."""
    values = list(values)
    if not values:
        return "-", 0.0
    n = len(values)
    for q in LADDER:
        if n * (1.0 - q / 100.0) >= MIN_BEYOND:
            return f"p{q:g}", percentile(values, q)
    return "max", max(values)


def median(values) -> float:
    values = list(values)
    return percentile(values, 50.0) if values else 0.0


def describe(values, fmt: str = "{:.4g}") -> str:
    """``p50 <x>  <tail label> <y>  n=<count>``."""
    values = list(values)
    label, value = tail(values)
    return (f"p50 {fmt.format(median(values))}  {label} {fmt.format(value)}"
            f"  n={len(values)}")


def geomean(values) -> float:
    """Geometric mean; 0.0 for an empty sample or one holding a 0."""
    values = list(values)
    if not values or min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
