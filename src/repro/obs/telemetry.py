"""Versioned telemetry frames: one kernel's metrics at one barrier.

A :class:`TelemetryFrame` is the unit the fleet telemetry pipeline
streams: everything one vehicle kernel's :class:`~repro.obs.hub.
Observability` exports — metric-hub counters and gauges (which, via the
registered collectors, already fold in the situation epoch, the
span/audit/trace ring drop counters and SSM and SACKfs stats), plus the
latency histograms — snapshotted at an epoch barrier and stamped with
the **virtual** clock.

Determinism contract: counters and gauges in this codebase are driven
by simulated work on the virtual clock, so they are seed-stable.
Histograms record *host* ``perf_counter`` timings and are not; a frame
therefore keeps them in a separate field and
:meth:`TelemetryFrame.deterministic_dict` excludes them — anything
fingerprinted or compared across runs must come from that view only.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from .metrics import bucket_percentile, series_key

#: Frame schema identifier; bump on incompatible layout changes.
TELEMETRY_SCHEMA = "sack-telemetry/v1"


def split_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (labels never contain ``{``)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    labels: Dict[str, str] = {}
    for pair in rest.rstrip("}").split(","):
        if not pair:
            continue
        k, _, v = pair.partition("=")
        labels[k] = v
    return name, labels


@dataclasses.dataclass
class TelemetryFrame:
    """One vehicle kernel's exported metrics at one epoch barrier."""

    schema: str
    vehicle_id: str
    epoch: int
    #: Fleet virtual clock at capture (never host time).
    at_ns: int
    #: Cumulative counter series: rendered key -> value (deterministic).
    counters: Dict[str, float]
    #: Gauge series: rendered key -> value (deterministic).
    gauges: Dict[str, float]
    #: Histogram series: rendered key -> {count,sum,bounds,buckets,...}.
    #: Host-timing: excluded from every deterministic view.
    histograms: Dict[str, Dict[str, object]]

    def deterministic_dict(self) -> Dict[str, object]:
        """The seed-stable slice of the frame (no host timing)."""
        return {
            "schema": self.schema,
            "vehicle_id": self.vehicle_id,
            "epoch": self.epoch,
            "at_ns": self.at_ns,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
        }

    def to_dict(self) -> Dict[str, object]:
        doc = self.deterministic_dict()
        doc["histograms"] = dict(sorted(self.histograms.items()))
        return doc


def snapshot_frame(obs, vehicle_id: str, epoch: int,
                   at_ns: int) -> TelemetryFrame:
    """Capture one kernel's :class:`Observability` into a frame.

    Reads the registry directly through
    :meth:`~repro.obs.metrics.MetricsRegistry.series` — the collectors
    run, so the situation epoch, ring drop counters and SSM/SACKfs stats
    are all included without duplicating any state; ``to_dict`` stays
    the JSON export.
    """
    counters, gauges, histograms = obs.metrics.series()
    return TelemetryFrame(schema=TELEMETRY_SCHEMA,
                          vehicle_id=vehicle_id, epoch=epoch,
                          at_ns=at_ns, counters=counters,
                          gauges=gauges, histograms=histograms)


def merge_histograms(rows: List[Dict[str, object]]
                     ) -> Optional[Dict[str, object]]:
    """Bucket-merge histogram summaries sharing one bound layout.

    Rows with mismatched bounds are skipped (never mis-added); returns
    None when nothing merged.
    """
    merged: Optional[Dict[str, object]] = None
    for row in rows:
        bounds = list(row.get("bounds", []))
        if merged is None:
            merged = {"count": 0, "sum": 0.0, "min": None, "max": None,
                      "bounds": bounds,
                      "buckets": [0] * len(row.get("buckets", []))}
        if bounds != merged["bounds"] or \
                len(row.get("buckets", [])) != len(merged["buckets"]):
            continue
        merged["count"] += int(row.get("count", 0))
        merged["sum"] += float(row.get("sum", 0.0))
        if int(row.get("count", 0)):
            row_min, row_max = float(row.get("min", 0.0)), \
                float(row.get("max", 0.0))
            merged["min"] = row_min if merged["min"] is None \
                else min(merged["min"], row_min)
            merged["max"] = row_max if merged["max"] is None \
                else max(merged["max"], row_max)
        merged["buckets"] = [a + int(b) for a, b in
                             zip(merged["buckets"], row["buckets"])]
    if merged is not None:
        merged["min"] = merged["min"] or 0.0
        merged["max"] = merged["max"] or 0.0
    return merged


def histogram_percentile(summary: Dict[str, object], q: float) -> float:
    """Percentile from a merged bucket summary (see
    :func:`~repro.obs.metrics.bucket_percentile`)."""
    return bucket_percentile(summary.get("bounds", []),
                             summary.get("buckets", []),
                             int(summary.get("count", 0)),
                             summary.get("max", 0.0), q)
