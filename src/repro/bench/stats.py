"""Small statistics helpers for benchmark aggregation."""

from __future__ import annotations

import dataclasses
from typing import List

from .lmbench import BenchResult


def pct_delta(baseline: float, value: float) -> float:
    """Percentage change of *value* relative to *baseline*."""
    if baseline == 0:
        return 0.0
    return (value - baseline) / baseline * 100.0


def best_result(runs: List[BenchResult]) -> BenchResult:
    """The best of repeated runs of one bench: the minimum latency or
    the maximum bandwidth (interference on a shared host only adds)."""
    if not runs:
        raise ValueError("no runs to reduce")
    values = [run.value for run in runs]
    first = runs[0]
    best = min(values) if first.smaller_is_better else max(values)
    return dataclasses.replace(first, value=best)
