"""Small statistics helpers for benchmark aggregation."""

from __future__ import annotations


def pct_delta(baseline: float, value: float) -> float:
    """Percentage change of *value* relative to *baseline*."""
    if baseline == 0:
        return 0.0
    return (value - baseline) / baseline * 100.0
