"""Hook counts and hook latency: consumers of ``lsm:hook_dispatch``.

The framework's module walk has one per-call observer, the
``lsm:hook_dispatch`` tracepoint: it times and emits each module call
only while a probe is attached (see :meth:`LsmFramework._walk`).  As in
Linux, counters and histograms are built on the tracepoint rather than
into the code it instruments.

Both probes are callable objects, never closures, so a deep-copied
kernel (a fleet checkpoint) carries probes bound to its own copies.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Tuple

from ..obs.tracepoints import LSM_HOOK_DISPATCH

HOOK_LATENCY_METRIC = "lsm_hook_latency_ns"


class HookStats:
    """Per-(module, hook) call and denial counts, keyed ``module.hook``.

    Counts the dispatches after :meth:`attach` only: a census that
    counts from boot attaches before the stack's policy activation.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.denials: Counter = Counter()

    def attach(self, obs) -> "HookStats":
        """Count *obs*'s hook dispatches and export the counts there."""
        obs.tracepoints.attach(LSM_HOOK_DISPATCH, self)
        # The export reads the live counters instead of keeping
        # duplicate counts that could drift.
        obs.metrics.register_collector(self.collect)
        return self

    def __call__(self, _name: str, fields: dict) -> None:
        key = f"{fields['module']}.{fields['hook']}"
        self.calls[key] += 1
        if fields["rc"]:
            self.denials[key] += 1

    def total_calls(self) -> int:
        return self.calls.total()

    def collect(self):
        out = [("lsm_hook_calls_total", (("site", key),), "counter", count)
               for key, count in self.calls.items()]
        out += [("lsm_hook_denials_total", (("site", key),), "counter",
                 count) for key, count in self.denials.items()]
        return out


class HookLatency:
    """``lsm_hook_latency_ns{module,hook}`` histograms in the hub's
    metrics registry.

    A record's exemplar is the trace id of the walk's own
    ``lsm.<hook>`` span (the only spans of stage ``hook``), and only
    when the tracer will keep that span (:meth:`SpanTracer.keeps`): an
    exemplar never names a trace that ``spans.roots()`` cannot return.
    A walk that opened no span leaves none, even inside another stage's
    span.
    """

    def __init__(self):
        self.obs = None
        self._histograms: Dict[Tuple[str, str], object] = {}

    def attach(self, obs) -> None:
        """Record *obs*'s hook dispatch latencies."""
        self.obs = obs
        obs.tracepoints.attach(LSM_HOOK_DISPATCH, self)

    def __call__(self, _name: str, fields: dict) -> None:
        key = (fields["module"], fields["hook"])
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = self.obs.metrics.histogram(
                HOOK_LATENCY_METRIC, {"module": key[0], "hook": key[1]})
        spans = self.obs.spans
        span = spans.active
        hist.record(fields["latency_ns"],
                    trace_id=(span.trace_id if span is not None
                              and span.stage == "hook"
                              and spans.keeps(span) else None))


def hook_latency_summary(metrics) -> Dict[str, Dict[str, float]]:
    """Per-hook summary of *metrics*' hook latency histograms.

    Returns ``{hook: {count, p50_ns, p99_ns, max_ns, mean_ns}}`` merged
    across modules; the percentiles of the merged view are the worst
    (largest) per-module percentile, a conservative bound that avoids
    re-binning.
    """
    merged: Dict[str, Dict[str, float]] = {}
    for labels, hist in metrics.histograms_named(
            HOOK_LATENCY_METRIC).items():
        if hist.count == 0:
            continue
        row = merged.setdefault(dict(labels)["hook"], {
            "count": 0, "total_ns": 0.0, "p50_ns": 0.0,
            "p99_ns": 0.0, "max_ns": 0.0})
        row["count"] += hist.count
        row["total_ns"] += hist.total
        row["p50_ns"] = max(row["p50_ns"], hist.percentile(50))
        row["p99_ns"] = max(row["p99_ns"], hist.percentile(99))
        row["max_ns"] = max(row["max_ns"], hist.max or 0.0)
    for row in merged.values():
        row["mean_ns"] = row.pop("total_ns") / row["count"]
    return merged
