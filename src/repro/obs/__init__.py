"""repro.obs — kernel-wide tracing, audit, and metrics.

The observability subsystem, modeled on Linux tracepoints + audit +
ftrace:

* :mod:`~repro.obs.tracepoints` — near-zero-cost-when-disabled
  instrumentation sites with runtime attach/detach;
* :mod:`~repro.obs.audit` — AVC-style structured audit records (carrying
  the situation state, the paper's new security context) in a bounded
  ring buffer with field-match filtering;
* :mod:`~repro.obs.metrics` — counters/gauges/histograms with JSON and
  Prometheus exporters, fed live by collectors so pseudo-file stats and
  exports cannot disagree;
* :mod:`~repro.obs.spans` — OpenTelemetry-style causal span tracing with
  trace-context propagation across the sensor→SDS→SACKfs→SSM→APE→hook
  pipeline, latency attribution, and Chrome-trace/flamegraph exports;
* :mod:`~repro.obs.hub` — the per-kernel :class:`Observability` hub the
  other layers report into (``kernel.obs``);
* :mod:`~repro.obs.tracefs` — the ``/sys/kernel/tracing`` pseudo-file
  surface over all of it.

See ``docs/observability.md`` and ``docs/tracing.md`` for the full
catalogue and formats.
"""

from .audit import (AUDIT_AVC, AUDIT_COMPLAIN, AUDIT_EVENT_REJECTED,
                    AUDIT_FAILSAFE, AUDIT_POLICY_LOAD, AUDIT_ROLLBACK,
                    AUDIT_STATE_TRANSITION, AuditEvent, AuditRing,
                    errno_name)
from .hub import Observability
from .metrics import (Counter, DEFAULT_NS_BUCKETS, Gauge, Histogram,
                      MetricsRegistry, Sample, sample)
from .spans import (DEFAULT_LINK_WINDOW, SPAN_RING_CAPACITY, Span,
                    SpanContext, SpanTracer, TRACEPARENT_KEY)
from .telemetry import (TELEMETRY_SCHEMA, TelemetryFrame,
                        histogram_percentile, merge_histograms,
                        series_key, snapshot_frame, split_series_key)
from .tracepoints import (CATALOGUE, FAULT_INJECT, LSM_HOOK_DISPATCH, Probe,
                          SACK_EVENT_REJECTED, SACK_EVENT_WRITE,
                          SACK_FAILSAFE, SACK_POLICY_LOAD,
                          SACK_TRANSITION_ROLLBACK, SSM_TRANSITION,
                          SYS_ENTER, SYS_EXIT, Tracepoint,
                          TracepointRegistry)
from .tracefs import TRACEFS_ROOT, TraceFs, mount_tracefs

__all__ = [
    "AUDIT_AVC", "AUDIT_COMPLAIN", "AUDIT_EVENT_REJECTED", "AUDIT_FAILSAFE",
    "AUDIT_POLICY_LOAD", "AUDIT_ROLLBACK",
    "AUDIT_STATE_TRANSITION", "AuditEvent", "AuditRing", "errno_name",
    "Observability", "Counter", "DEFAULT_NS_BUCKETS", "Gauge", "Histogram",
    "MetricsRegistry", "Sample", "sample", "CATALOGUE", "FAULT_INJECT",
    "LSM_HOOK_DISPATCH", "Probe", "SACK_EVENT_REJECTED", "SACK_EVENT_WRITE",
    "SACK_FAILSAFE", "SACK_POLICY_LOAD", "SACK_TRANSITION_ROLLBACK",
    "SSM_TRANSITION", "SYS_ENTER", "SYS_EXIT",
    "Tracepoint", "TracepointRegistry", "TRACEFS_ROOT", "TraceFs",
    "mount_tracefs",
    "DEFAULT_LINK_WINDOW", "SPAN_RING_CAPACITY", "Span", "SpanContext",
    "SpanTracer", "TRACEPARENT_KEY",
    "TELEMETRY_SCHEMA", "TelemetryFrame", "histogram_percentile",
    "merge_histograms", "series_key", "snapshot_frame",
    "split_series_key",
]
