"""Exact order statistics over raw host-clock samples."""

from __future__ import annotations

import math
import resource
from typing import Dict, Sequence


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) of already sorted values.

    Linear interpolation between the two nearest ranks, computed from the
    raw samples — never from histogram buckets.
    """
    if not sorted_values:
        raise ValueError("percentile of no samples")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile out of range: {q}")
    pos = (len(sorted_values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    frac = pos - lo
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * frac


def highest_supported_percentile(n: int, beyond: int = 10) -> float:
    """The highest percentile with at least *beyond* samples above it."""
    if n <= beyond:
        return 0.0
    return 100.0 * (1.0 - beyond / n)


def summarize(samples_ns: Sequence[int], tail: float,
              scale: float) -> Dict[str, float]:
    """Median and *tail* percentile of *samples_ns*, divided by *scale*.

    The summary also records the sample count and the highest percentile
    the sample count supports, so a tail read from too few samples shows.
    """
    ordered = sorted(samples_ns)
    return {
        "p50": percentile(ordered, 50.0) / scale,
        f"p{tail:g}": percentile(ordered, tail) / scale,
        "samples": len(ordered),
        "max_supported_percentile": round(
            highest_supported_percentile(len(ordered)), 3),
    }


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
