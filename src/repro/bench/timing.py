"""Latency-sample summaries for the benchmark harness.

Nearest-rank percentiles and the ``{mean, p50, p99}`` summary dict that
E5 (:func:`repro.bench.harness.run_event_latency`) reports.  Percentiles
are :func:`repro.obs.metrics.percentile`, the one nearest-rank rule the
fleet telemetry rollups use too (re-exported here).

Best-of-N is not here: every repeated measurement goes through the
harness's one loop, ``repro.bench.harness._best_of_sweep`` (see
docs/benchmarking.md, "Noise discipline").
"""

from __future__ import annotations

from typing import Dict, Sequence

from ..obs.metrics import percentile


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
