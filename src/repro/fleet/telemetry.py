"""Fleet streaming telemetry: aggregation, SLO burn-rate engine, export.

Every epoch barrier, each live vehicle kernel's metrics are snapshotted
into a :class:`~repro.obs.telemetry.TelemetryFrame` and streamed — in
sorted vehicle order, on the fleet virtual clock — into the
:class:`TelemetryAggregator`:

* **Windowed rollups.**  Per-metric fleet rates and cross-vehicle
  p50/p99 over sliding virtual-time windows (a short and a long window,
  in epochs).  Rollups are computed from counter deltas and gauges
  only — deterministic, seed-stable, identical at any worker count —
  and hash into :meth:`TelemetryAggregator.rollup_digest`.

* **Cardinality budget.**  The aggregator tracks at most
  ``max_series`` per-vehicle series; beyond that, new series are
  dropped and counted (``telemetry_series_dropped``), never unbounded.

* **OpenMetrics exposition.**  :meth:`TelemetryAggregator.to_openmetrics`
  renders the whole fleet: per-vehicle series (``vehicle=<id>`` label,
  escaped), fleet-summed ``fleet_*`` series, bucket-merged latency
  histograms, and the pipeline's own meta-series.  Vehicles that stop
  reporting (crashed, quarantined) retain their last-seen series.

The :class:`SloEngine` evaluates declarative :class:`SloSpec`
objectives with **multi-window burn-rate alerting**: an alert fires
only when the burn rate (measured pressure against the objective's
threshold) exceeds the spec's burn factor in *both* the short and the
long window — fast to catch a real burn, hard to trip on a one-epoch
spike.  Alerts feed rollout health gating (``slo_alerts`` in the
health deltas; see :class:`~repro.fleet.rollout.RolloutPlan.gate_on_slo`)
and the supervisor's quarantine decisions.

:class:`FleetTelemetry` is the orchestrator-facing facade: it owns the
aggregator, the engine, and its own fleet-level observability hub for
self-accounting (``telemetry_overhead`` span, CPU-cost histogram) —
kept out of the per-vehicle kernels so per-kernel roll-ups and
pre-existing fingerprints are untouched.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

from ..obs.metrics import MetricsRegistry
from ..obs.telemetry import (TelemetryFrame, histogram_percentile,
                             merge_histograms, split_series_key)

#: Modelled serial control-plane cost of scraping one vehicle frame at
#: the barrier (virtual ns) — the deterministic denominator the
#: telemetry-overhead benchmark gates on.
TELEMETRY_COST_PER_FRAME_NS = 100_000

#: Burn rates are clamped here so a `== 0` objective (any breach is an
#: infinite burn) still serializes to JSON.
BURN_CLAMP = 1e6


# -- SLO specs -----------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SloSpec:
    """One declarative objective over the aggregated telemetry.

    *kind* selects the measurement: ``rate`` (counter deltas per
    virtual second over the window), ``gauge`` (latest values summed),
    ``ratio`` (numerator/denominator counter deltas over the window),
    or ``p99_ms`` (bucket-merged histogram p99, in milliseconds —
    host-timing, so alerts from it are not worker-count deterministic;
    the built-in defaults avoid it).

    *op* ``max`` means the measurement must stay <= *threshold*;
    ``min`` means >= *threshold*.  The burn rate is the measured
    pressure against the threshold (1.0 = exactly at the objective);
    an alert needs burn > *burn_factor* in both windows.
    """

    name: str
    kind: str                    # "rate" | "gauge" | "ratio" | "p99_ms"
    op: str                      # "max" | "min"
    threshold: float
    series: str = ""             # rate/gauge/p99_ms matcher
    numerator: str = ""          # ratio only
    denominator: str = ""        # ratio only
    per_vehicle: bool = False
    burn_factor: float = 1.0

    def __post_init__(self):
        if self.kind not in ("rate", "gauge", "ratio", "p99_ms"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.op not in ("max", "min"):
            raise ValueError(f"unknown SLO op {self.op!r}")
        if self.kind == "ratio" and not (self.numerator
                                         and self.denominator):
            raise ValueError("ratio SLOs need numerator and denominator")
        if self.kind != "ratio" and not self.series:
            raise ValueError(f"{self.kind} SLOs need a series matcher")
        if self.burn_factor <= 0:
            raise ValueError("burn_factor must be > 0")

    def describe(self) -> str:
        cmp = "<=" if self.op == "max" else ">="
        return f"{self.name} {cmp} {self.threshold:g}"

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "kind": self.kind, "op": self.op,
                "threshold": self.threshold,
                "per_vehicle": self.per_vehicle,
                "burn_factor": self.burn_factor}


#: CLI-facing objective aliases: ``sackctl fleet top --slo
#: "denial_rate<=5"`` resolves through this table.
SLO_ALIASES: Dict[str, Dict[str, object]] = {
    "denial_rate": {"kind": "rate", "series": "lsm_denials_total"},
    "vehicle_denial_rate": {"kind": "rate",
                            "series": "lsm_denials_total",
                            "per_vehicle": True},
    "failsafe_entries": {"kind": "rate",
                         "series": "sack_failsafe_engagements_total"},
    "avc_hit_ratio": {"kind": "ratio",
                      "numerator": "lsm_avc_lookups_total{result=hit}",
                      "denominator": "lsm_avc_lookups_total"},
    "event_rate": {"kind": "rate",
                   "series": "sackfs_events_received_total"},
    "heartbeat_rate": {"kind": "rate",
                       "series": "sackfs_heartbeats_received_total"},
    "hook_p99_ms": {"kind": "p99_ms",
                    "series": "lsm_hook_latency_ns"},
}


def parse_slo(spec: str) -> SloSpec:
    """``"denial_rate<=5"`` / ``"avc_hit_ratio>=0.2"`` -> SloSpec."""
    for token, op in (("<=", "max"), (">=", "min")):
        if token in spec:
            alias, _, raw = spec.partition(token)
            alias = alias.strip()
            base = SLO_ALIASES.get(alias)
            if base is None:
                raise ValueError(
                    f"unknown SLO alias {alias!r}; known: "
                    f"{', '.join(sorted(SLO_ALIASES))}")
            try:
                threshold = float(raw.strip())
            except ValueError:
                raise ValueError(f"bad SLO threshold in {spec!r}")
            return SloSpec(name=alias, op=op, threshold=threshold,
                           **base)
    raise ValueError(f"bad SLO spec {spec!r}; use alias<=X or alias>=X")


def default_slos() -> Tuple[SloSpec, ...]:
    """The armed-by-default objective set — deterministic measurements
    only, with thresholds lenient enough that a healthy seeded fleet
    never alerts."""
    return (
        SloSpec("denial_rate", "rate", "max", 200.0,
                series="lsm_denials_total"),
        SloSpec("vehicle_denial_rate", "rate", "max", 150.0,
                series="lsm_denials_total", per_vehicle=True),
        SloSpec("failsafe_entries", "rate", "max", 0.0,
                series="sack_failsafe_engagements_total"),
        SloSpec("avc_hit_ratio", "ratio", "min", 0.05,
                numerator="lsm_avc_lookups_total{result=hit}",
                denominator="lsm_avc_lookups_total"),
    )


@dataclasses.dataclass(frozen=True)
class SloAlert:
    """One multi-window burn-rate breach at one epoch."""

    slo: str
    epoch: int
    vehicle_id: str              # "" = fleet-scope
    threshold: float
    op: str
    measured_short: float
    measured_long: float
    burn_short: float
    burn_long: float

    def to_dict(self) -> Dict[str, object]:
        return {
            "slo": self.slo, "epoch": self.epoch,
            "vehicle": self.vehicle_id,
            "threshold": self.threshold, "op": self.op,
            "measured_short": round(self.measured_short, 6),
            "measured_long": round(self.measured_long, 6),
            "burn_short": round(self.burn_short, 4),
            "burn_long": round(self.burn_long, 4),
        }

    def describe(self) -> str:
        scope = self.vehicle_id or "fleet"
        cmp = "<=" if self.op == "max" else ">="
        return (f"SLO {self.slo} [{scope}]: measured "
                f"{self.measured_short:g} (short) / "
                f"{self.measured_long:g} (long) vs {cmp} "
                f"{self.threshold:g}; burn "
                f"{self.burn_short:g}/{self.burn_long:g}")


def _series_matches(key: str, matcher: str) -> bool:
    """A series key matches a bare name, an exact key, or a name with a
    label subset (``lsm_avc_lookups_total{result=hit}``)."""
    if key == matcher:
        return True
    name, labels = split_series_key(key)
    m_name, m_labels = split_series_key(matcher)
    if name != m_name:
        return False
    return all(labels.get(k) == v for k, v in m_labels.items())


# -- the aggregator ------------------------------------------------------------

class TelemetryAggregator:
    """Fleet-level windowed rollups under a cardinality budget."""

    def __init__(self, epoch_duration_ns: int,
                 short_window_epochs: int = 3,
                 long_window_epochs: int = 12,
                 max_series: int = 4096):
        if epoch_duration_ns <= 0:
            raise ValueError("epoch_duration_ns must be > 0")
        if short_window_epochs < 1 or \
                long_window_epochs < short_window_epochs:
            raise ValueError("need 1 <= short window <= long window")
        if max_series < 1:
            raise ValueError("max_series must be >= 1")
        self.epoch_duration_ns = epoch_duration_ns
        self.short_window = short_window_epochs
        self.long_window = long_window_epochs
        self.max_series = max_series
        self.frames_total = 0
        self.last_epoch = -1
        #: (vehicle, series key) -> cumulative counter value.
        self._counter_last: Dict[Tuple[str, str], float] = {}
        #: (vehicle, series key) -> recent (epoch, delta) pairs.
        self._counter_hist: Dict[Tuple[str, str],
                                 Deque[Tuple[int, float]]] = {}
        self._gauge_last: Dict[Tuple[str, str], float] = {}
        #: (vehicle, series key) -> latest histogram summary (host-timing).
        self._hist_last: Dict[Tuple[str, str], Dict[str, object]] = {}
        #: metric name -> tracked (vehicle, key) pairs, insertion order.
        self._by_name: Dict[str, List[Tuple[str, str]]] = {}
        #: Dropped observations per metric name (budget exceeded).
        self.series_dropped: Dict[str, int] = {}
        #: Last epoch each vehicle reported (retention bookkeeping).
        self.last_seen: Dict[str, int] = {}

    # -- ingest ------------------------------------------------------------
    @property
    def series_tracked(self) -> int:
        return (len(self._counter_last) + len(self._gauge_last)
                + len(self._hist_last))

    def _admit(self, vid: str, key: str) -> bool:
        """Charge one new ``(vid, key)`` series against the budget."""
        name, _ = split_series_key(key)
        if self.series_tracked >= self.max_series:
            self.series_dropped[name] = \
                self.series_dropped.get(name, 0) + 1
            return False
        self._by_name.setdefault(name, []).append((vid, key))
        return True

    def ingest(self, frame: TelemetryFrame) -> None:
        """Fold one frame in.  Callers must ingest frames of one epoch
        in sorted vehicle order — that, plus sorted series iteration,
        is what makes budget drops and rollups order-deterministic.
        Only a series not yet tracked is charged against the budget."""
        self.frames_total += 1
        self.last_epoch = max(self.last_epoch, frame.epoch)
        vid, epoch = frame.vehicle_id, frame.epoch
        self.last_seen[vid] = epoch
        counter_last, counter_hist = self._counter_last, self._counter_hist
        counters = frame.counters
        for key in sorted(counters):
            series = (vid, key)
            hist = counter_hist.get(series)
            if hist is None:
                if not self._admit(vid, key):
                    continue
                hist = counter_hist[series] = deque(maxlen=self.long_window)
                prev = 0.0
            else:
                prev = counter_last[series]
            value = counter_last[series] = counters[key]
            hist.append((epoch, value - prev if value > prev else 0.0))
        for store, values in ((self._gauge_last, frame.gauges),
                              (self._hist_last, frame.histograms)):
            for key in sorted(values):
                series = (vid, key)
                if series in store or self._admit(vid, key):
                    store[series] = values[key]

    # -- window measurement ------------------------------------------------
    def _window_seconds(self, window_epochs: int) -> float:
        return window_epochs * self.epoch_duration_ns / 1e9

    def window_deltas(self, matcher: str, epoch: int,
                      window_epochs: int) -> Dict[str, float]:
        """Per-vehicle summed counter deltas of matching series over
        epochs ``(epoch - window, epoch]``."""
        lo = epoch - window_epochs + 1
        out: Dict[str, float] = {}
        name, _ = split_series_key(matcher)
        for vid, key in self._by_name.get(name, ()):
            hist = self._counter_hist.get((vid, key))
            if hist is None or not _series_matches(key, matcher):
                continue
            total = sum(delta for e, delta in hist if lo <= e <= epoch)
            out[vid] = out.get(vid, 0.0) + total
        return out

    def fleet_rate(self, matcher: str, epoch: int,
                   window_epochs: int) -> float:
        """Fleet-summed rate per virtual second over the window."""
        deltas = self.window_deltas(matcher, epoch, window_epochs)
        return sum(deltas.values()) / self._window_seconds(window_epochs)

    def per_vehicle_rates(self, matcher: str, epoch: int,
                          window_epochs: int) -> Dict[str, float]:
        seconds = self._window_seconds(window_epochs)
        return {vid: total / seconds for vid, total in
                sorted(self.window_deltas(matcher, epoch,
                                          window_epochs).items())}

    def rate_percentile(self, matcher: str, epoch: int,
                        window_epochs: int, q: float) -> float:
        """Nearest-rank percentile of per-vehicle window rates."""
        rates = sorted(self.per_vehicle_rates(matcher, epoch,
                                              window_epochs).values())
        if not rates:
            return 0.0
        rank = max(1, int(round(len(rates) * q / 100.0)))
        return rates[min(rank, len(rates)) - 1]

    def fleet_ratio(self, numerator: str, denominator: str, epoch: int,
                    window_epochs: int) -> Optional[float]:
        """Windowed delta ratio; None when there was no traffic."""
        num = sum(self.window_deltas(numerator, epoch,
                                     window_epochs).values())
        den = sum(self.window_deltas(denominator, epoch,
                                     window_epochs).values())
        if den <= 0:
            return None
        return num / den

    def gauge_total(self, matcher: str) -> float:
        name, _ = split_series_key(matcher)
        return sum(value for (vid, key), value in
                   sorted(self._gauge_last.items())
                   if split_series_key(key)[0] == name
                   and _series_matches(key, matcher))

    def merged_histogram(self, matcher: str
                         ) -> Optional[Dict[str, object]]:
        """Bucket-merge matching latest histograms fleet-wide."""
        name, _ = split_series_key(matcher)
        rows = [summary for (vid, key), summary in
                sorted(self._hist_last.items())
                if split_series_key(key)[0] == name
                and _series_matches(key, matcher)]
        return merge_histograms(rows) if rows else None

    def hist_percentile(self, matcher: str, q: float) -> Optional[float]:
        merged = self.merged_histogram(matcher)
        if merged is None or not int(merged.get("count", 0)):
            return None
        return histogram_percentile(merged, q)

    def top_series(self, matcher: str, epoch: int, window_epochs: int,
                   n: int = 5) -> List[Tuple[str, float]]:
        """Top-N *series keys* (not vehicles) by windowed delta —
        e.g. the denial subjects dominating the fleet right now."""
        lo = epoch - window_epochs + 1
        name, _ = split_series_key(matcher)
        totals: Dict[str, float] = {}
        for vid, key in self._by_name.get(name, ()):
            hist = self._counter_hist.get((vid, key))
            if hist is None or not _series_matches(key, matcher):
                continue
            total = sum(delta for e, delta in hist if lo <= e <= epoch)
            if total > 0:
                totals[key] = totals.get(key, 0.0) + total
        ranked = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    # -- deterministic rollups ---------------------------------------------
    def counter_names(self) -> List[str]:
        return sorted(name for name in self._by_name
                      if any((vid, key) in self._counter_hist
                             for vid, key in self._by_name[name]))

    def rollups(self, epoch: Optional[int] = None) -> Dict[str, object]:
        """Windowed rate/p50/p99 per counter metric — deterministic
        (counters only, sorted iteration, virtual-clock denominators)."""
        at = self.last_epoch if epoch is None else epoch
        windows: Dict[str, object] = {}
        for label, span in (("short", self.short_window),
                            ("long", self.long_window)):
            series: Dict[str, object] = {}
            for name in self.counter_names():
                rate = self.fleet_rate(name, at, span)
                if rate <= 0:
                    continue
                series[name] = {
                    "fleet_per_s": round(rate, 6),
                    "p50_per_s": round(
                        self.rate_percentile(name, at, span, 50), 6),
                    "p99_per_s": round(
                        self.rate_percentile(name, at, span, 99), 6),
                }
            windows[label] = {"epochs": span, "series": series}
        return {"epoch": at, "windows": windows}

    def rollup_digest(self, epoch: Optional[int] = None) -> str:
        payload = json.dumps(self.rollups(epoch), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    # -- OpenMetrics exposition --------------------------------------------
    def to_openmetrics(self) -> str:
        """Whole-fleet Prometheus text exposition.

        Per-vehicle series carry a ``vehicle`` label (values escaped by
        the exposition layer); fleet sums are prefixed ``fleet_``.
        Vehicles that stopped reporting retain their last-seen series.
        """
        reg = MetricsRegistry(max_series_per_metric=2 ** 31)
        fleet_counters: Dict[str, float] = {}
        for (vid, key), value in sorted(self._counter_last.items()):
            name, labels = split_series_key(key)
            labels["vehicle"] = vid
            reg.counter(name, labels).inc(int(value))
            fleet_counters[key] = fleet_counters.get(key, 0.0) + value
        for key, value in sorted(fleet_counters.items()):
            name, labels = split_series_key(key)
            reg.counter(f"fleet_{name}", labels).inc(int(value))
        fleet_gauges: Dict[str, float] = {}
        for (vid, key), value in sorted(self._gauge_last.items()):
            name, labels = split_series_key(key)
            labels["vehicle"] = vid
            reg.gauge(name, labels).set(value)
            fleet_gauges[key] = fleet_gauges.get(key, 0.0) + value
        for key, value in sorted(fleet_gauges.items()):
            name, labels = split_series_key(key)
            reg.gauge(f"fleet_{name}", labels).set(value)
        hist_names = sorted({split_series_key(key)[0]
                             for _, key in self._hist_last})
        for name in hist_names:
            merged = self.merged_histogram(name)
            if merged is None or not merged.get("bounds"):
                continue
            hist = reg.histogram(f"fleet_{name}",
                                 bounds=merged["bounds"])
            hist.bucket_counts = list(merged["buckets"])
            hist.count = int(merged["count"])
            hist.total = float(merged["sum"])
            hist.min = float(merged["min"])
            hist.max = float(merged["max"])
        reg.counter("telemetry_frames_total").inc(self.frames_total)
        reg.gauge("telemetry_series_tracked").set(self.series_tracked)
        for name in sorted(self.series_dropped):
            reg.counter("telemetry_series_dropped",
                        {"metric": name}).inc(self.series_dropped[name])
        return reg.to_prometheus()


# -- the SLO engine ------------------------------------------------------------

class SloEngine:
    """Multi-window burn-rate evaluation over the aggregator."""

    #: Alert history kept for reporting (evaluation is stateless).
    HISTORY_LIMIT = 256

    def __init__(self, slos: Tuple[SloSpec, ...],
                 aggregator: TelemetryAggregator):
        self.slos = tuple(slos)
        self.agg = aggregator
        self.alerts_total = 0
        self.alerts: List[SloAlert] = []
        #: Objective name (+vehicle) -> consecutive alerted epochs.
        self.burning: Dict[str, int] = {}

    def _measure(self, slo: SloSpec, epoch: int,
                 window: int) -> Optional[float]:
        """One window's fleet-scope measurement (None = no data)."""
        if slo.kind == "rate":
            return self.agg.fleet_rate(slo.series, epoch, window)
        if slo.kind == "gauge":
            return self.agg.gauge_total(slo.series)
        if slo.kind == "ratio":
            return self.agg.fleet_ratio(slo.numerator, slo.denominator,
                                        epoch, window)
        if slo.kind == "p99_ms":
            p99_ns = self.agg.hist_percentile(slo.series, 99)
            return None if p99_ns is None else p99_ns / 1e6
        return None

    @staticmethod
    def burn_rate(slo: SloSpec, measured: float) -> float:
        """Pressure against the objective; 1.0 = exactly at threshold."""
        if slo.op == "max":
            if slo.threshold <= 0:
                return BURN_CLAMP if measured > 0 else 0.0
            return min(BURN_CLAMP, measured / slo.threshold)
        if measured <= 0:
            return BURN_CLAMP if slo.threshold > 0 else 0.0
        return min(BURN_CLAMP, slo.threshold / measured)

    def _scoped(self, slo: SloSpec, epoch: int,
                vehicle_ids: Tuple[str, ...]
                ) -> Iterator[Tuple[Optional[str], Optional[float],
                                    Optional[float]]]:
        """``(vehicle, short, long)`` per scope of *slo*: the fleet, or
        each vehicle in sorted order.  Each window is measured once for
        all of a spec's scopes; a per-vehicle rate reads every vehicle's
        rate from one :meth:`TelemetryAggregator.per_vehicle_rates`."""
        scopes = sorted(vehicle_ids) if slo.per_vehicle else [None]
        if not scopes:
            return
        agg = self.agg
        if slo.per_vehicle and slo.kind == "rate":
            short = agg.per_vehicle_rates(slo.series, epoch,
                                          agg.short_window)
            long_ = agg.per_vehicle_rates(slo.series, epoch,
                                          agg.long_window)
            for vid in scopes:
                yield vid, short.get(vid, 0.0), long_.get(vid, 0.0)
            return
        short = self._measure(slo, epoch, agg.short_window)
        long_ = self._measure(slo, epoch, agg.long_window)
        for vid in scopes:
            yield vid, short, long_

    def _evaluate_one(self, slo: SloSpec, epoch: int,
                      vehicle: Optional[str], short: Optional[float],
                      long_: Optional[float]) -> Optional[SloAlert]:
        scope = vehicle or ""
        key = f"{slo.name}:{scope}" if scope else slo.name
        if short is None or long_ is None:
            self.burning.pop(key, None)
            return None             # no data: an SLO can't burn on silence
        burn_short = self.burn_rate(slo, short)
        burn_long = self.burn_rate(slo, long_)
        if burn_short > slo.burn_factor and \
                burn_long > slo.burn_factor:
            self.burning[key] = self.burning.get(key, 0) + 1
            return SloAlert(slo=slo.name, epoch=epoch, vehicle_id=scope,
                            threshold=slo.threshold, op=slo.op,
                            measured_short=short, measured_long=long_,
                            burn_short=burn_short, burn_long=burn_long)
        self.burning.pop(key, None)
        return None

    def evaluate(self, epoch: int,
                 vehicle_ids: Tuple[str, ...]) -> List[SloAlert]:
        """All objectives at one barrier; per-vehicle specs fan out over
        *vehicle_ids* in sorted order.

        Burn-rate alerting needs a full long window of history — before
        that, cold-start artifacts (an empty AVC, zero traffic) would
        read as infinite burns — so evaluation warms up silently.
        """
        if epoch + 1 < self.agg.long_window:
            return []
        fired: List[SloAlert] = []
        for slo in self.slos:
            for vid, short, long_ in self._scoped(slo, epoch, vehicle_ids):
                alert = self._evaluate_one(slo, epoch, vid, short, long_)
                if alert is not None:
                    fired.append(alert)
        self.alerts_total += len(fired)
        self.alerts.extend(fired)
        del self.alerts[:-self.HISTORY_LIMIT]
        return fired

    def status_rows(self, epoch: int,
                    vehicle_ids: Tuple[str, ...] = ()
                    ) -> List[Dict[str, object]]:
        """One display row per objective (worst vehicle for per-vehicle
        specs) — what ``sackctl fleet top`` renders."""
        rows: List[Dict[str, object]] = []
        for slo in self.slos:
            worst: Optional[Dict[str, object]] = None
            for vid, short, long_ in self._scoped(slo, epoch, vehicle_ids):
                if short is None or long_ is None:
                    continue
                burn_short = self.burn_rate(slo, short)
                burn_long = self.burn_rate(slo, long_)
                key = f"{slo.name}:{vid}" if vid else slo.name
                row = {"objective": slo.describe(),
                       "scope": vid or "fleet",
                       "measured_short": round(short, 4),
                       "burn_short": round(burn_short, 4),
                       "burn_long": round(burn_long, 4),
                       "state": "ALERT" if key in self.burning
                       else "ok"}
                if worst is None or row["burn_short"] > \
                        worst["burn_short"]:
                    worst = row
            rows.append(worst if worst is not None else
                        {"objective": slo.describe(), "scope": "-",
                         "measured_short": None, "burn_short": 0.0,
                         "burn_long": 0.0, "state": "no data"})
        return rows

    def summary(self) -> Dict[str, object]:
        return {
            "objectives": [slo.describe() for slo in self.slos],
            "alerts_total": self.alerts_total,
            "burning": dict(sorted(self.burning.items())),
            "alerts": [a.to_dict() for a in self.alerts[-32:]],
        }


# -- the orchestrator-facing facade --------------------------------------------

class FleetTelemetry:
    """Owns the pipeline for one :class:`~repro.fleet.orchestrator.Fleet`."""

    def __init__(self, fleet):
        self.fleet = fleet
        cfg = fleet.config
        epoch_duration_ns = int(cfg.epoch_ticks * cfg.dt_s * 1e9)
        self.aggregator = TelemetryAggregator(
            epoch_duration_ns=epoch_duration_ns,
            short_window_epochs=cfg.telemetry_short_window_epochs,
            long_window_epochs=cfg.telemetry_long_window_epochs,
            max_series=cfg.telemetry_max_series)
        slos = tuple(cfg.slos) if cfg.slos else default_slos()
        self.engine = SloEngine(slos, self.aggregator)
        self.epochs_collected = 0
        self.last_frames = 0
        self.obs = fleet.obs
        self.last_alerts: List[SloAlert] = []

    def collect(self, epoch: int) -> List[SloAlert]:
        """Snapshot every live vehicle, ingest, evaluate SLOs.

        Returns this barrier's alerts; the modelled serial cost
        (frames x :data:`TELEMETRY_COST_PER_FRAME_NS`) is charged by
        the orchestrator into the barrier makespan.
        """
        fleet = self.fleet
        span = self.obs.spans.start_span("telemetry_overhead",
                                         stage="fleet",
                                         attributes={"epoch": epoch})
        t0 = time.perf_counter_ns()
        frames = 0
        live = []
        for vid in fleet.ids:
            if fleet.supervisor.is_dead(vid):
                continue            # retention: last series stay exported
            frame = fleet.host.telemetry_frame(vid, epoch,
                                               fleet.sim_now_ns)
            self.aggregator.ingest(frame)
            frames += 1
            live.append(vid)
        alerts = self.engine.evaluate(epoch, tuple(live))
        self.epochs_collected += 1
        self.last_frames = frames
        self.last_alerts = alerts
        self.obs.metrics.counter("telemetry_frames_total").inc(frames)
        self.obs.metrics.counter("telemetry_epochs_total").inc()
        if alerts:
            self.obs.metrics.counter("telemetry_slo_alerts_total").inc(
                len(alerts))
        self.obs.metrics.histogram("telemetry_overhead_cpu_ns").record(
            time.perf_counter_ns() - t0)
        self.obs.spans.end_span(span)
        return alerts

    def virtual_cost_ns(self, frames: int) -> int:
        return frames * TELEMETRY_COST_PER_FRAME_NS

    def summary(self) -> Dict[str, object]:
        """The report's ``telemetry`` section.  Everything here is
        deterministic except the ``overhead`` key, which carries host
        CPU timings — :meth:`FleetReport.fingerprint` strips it."""
        agg = self.aggregator
        overhead_hist = self.obs.metrics.histogram(
            "telemetry_overhead_cpu_ns")
        return {
            "epochs": self.epochs_collected,
            "frames": agg.frames_total,
            "series_tracked": agg.series_tracked,
            "series_dropped": dict(sorted(agg.series_dropped.items())),
            "rollups": agg.rollups(),
            "rollup_digest": agg.rollup_digest(),
            "slo": self.engine.summary(),
            "virtual_cost_ns": self.virtual_cost_ns(agg.frames_total),
            "overhead": {
                "cpu_ns_total": int(overhead_hist.total),
                "cpu_ns_mean": int(overhead_hist.mean),
            },
        }
