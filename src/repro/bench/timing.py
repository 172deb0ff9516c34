"""Shared timing and percentile helpers for every benchmark path.

Before this module each benchmark file carried its own copy of the same
three idioms — a best-of-N wall-clock loop, nearest-rank percentiles
over a sorted sample, and a ``{mean, p50, p99}`` summary dict.  They
now live here so the pytest benchmarks (``benchmarks/test_*.py``), the
harness sweeps (:mod:`repro.bench.harness`), and the declarative suite
runner (:mod:`repro.bench.suite`) all agree on the arithmetic.

Noise discipline (see docs/benchmarking.md): interference on a shared
host is additive, so *best-of-N* — the minimum over repetitions — is
the noise-robust estimator for latencies.  Percentiles are
:func:`repro.obs.metrics.percentile`, the one nearest-rank rule the
fleet telemetry rollups use too (re-exported here).
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Sequence

from ..obs.metrics import percentile


def best_of(fn: Callable[[], object], reps: int = 3) -> float:
    """Minimum wall-clock seconds of *fn* over *reps* runs."""
    if reps < 1:
        raise ValueError("need at least one repetition")
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def summarize_ns(values: Sequence[float]) -> Dict[str, float]:
    """``{count, mean_ns, p50_ns, p99_ns, max_ns}`` of a latency sample."""
    if not values:
        raise ValueError("summarize_ns of empty sequence")
    ordered = sorted(values)
    return {
        "count": len(ordered),
        "mean_ns": sum(ordered) / len(ordered),
        "p50_ns": percentile(ordered, 0.5),
        "p99_ns": percentile(ordered, 0.99),
        "max_ns": ordered[-1],
    }


def latency_summary_us(latencies_ns: Sequence[float],
                       ) -> Dict[str, float]:
    """``{mean_us, p50_us, p99_us}`` from a nanosecond sample."""
    summary = summarize_ns(latencies_ns)
    return {
        "mean_us": summary["mean_ns"] / 1e3,
        "p50_us": summary["p50_ns"] / 1e3,
        "p99_us": summary["p99_ns"] / 1e3,
    }
