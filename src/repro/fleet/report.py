"""Fleet-wide aggregation: one roll-up over every vehicle's kernel.

Each vehicle carries its own :mod:`repro.obs` hub (metrics, audit ring,
spans).  The fleet report folds those per-kernel views into one place —
summed counters, per-vehicle transition histories, bus and rollout
outcomes, chaos-style violations — and exposes the same
:meth:`FleetReport.fingerprint` discipline as the single-vehicle chaos
harness: a seeded run hashes to the same value every time, at any worker
count, or the scheduler is broken.

Host-timing values (latency histograms, policy-load durations) never
enter the fingerprint; only virtual-clock timestamps and counters do.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Dict, List, Tuple

from ..obs.telemetry import merge_histograms, series_key


def aggregate_counters(metric_dicts) -> Dict[str, int]:
    """Sum ``repro.obs`` counter values across kernels.

    *metric_dicts* is an iterable of ``MetricsRegistry.to_dict()``
    results; the return maps ``name{label=value,...}`` (or bare ``name``)
    to the fleet-wide total.  Only counters are folded here — see
    :func:`aggregate_metrics` for the full-instrument roll-up.
    """
    totals: Dict[str, int] = {}
    for doc in metric_dicts:
        for row in doc.get("counters", []):
            key = series_key(row["name"], row.get("labels"))
            totals[key] = totals.get(key, 0) + int(row["value"])
    return dict(sorted(totals.items()))


def aggregate_metrics(metric_dicts) -> Dict[str, Dict[str, object]]:
    """Fold every instrument kind across kernels, not just counters.

    Returns ``{"counters": {key: sum}, "gauges": {key: {last,min,max}},
    "histograms": {key: merged-summary}}``.  Gauges are point-in-time,
    so the fold keeps the last value seen (iteration order) plus the
    min/max envelope across vehicles; histograms bucket-merge via
    :func:`repro.obs.telemetry.merge_histograms` (host-timing — callers
    must keep them out of fingerprints).
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, Dict[str, float]] = {}
    hist_rows: Dict[str, List[Dict[str, object]]] = {}
    for doc in metric_dicts:
        for row in doc.get("counters", []):
            key = series_key(row["name"], row.get("labels"))
            counters[key] = counters.get(key, 0) + int(row["value"])
        for row in doc.get("gauges", []):
            key = series_key(row["name"], row.get("labels"))
            value = float(row["value"])
            agg = gauges.get(key)
            if agg is None:
                gauges[key] = {"last": value, "min": value, "max": value}
            else:
                agg["last"] = value
                agg["min"] = min(agg["min"], value)
                agg["max"] = max(agg["max"], value)
        for row in doc.get("histograms", []):
            key = series_key(row["name"], row.get("labels"))
            hist_rows.setdefault(key, []).append(row)
    histograms: Dict[str, Dict[str, object]] = {}
    for key, rows in hist_rows.items():
        merged = merge_histograms(rows)
        if merged is not None:
            histograms[key] = merged
    return {"counters": dict(sorted(counters.items())),
            "gauges": dict(sorted(gauges.items())),
            "histograms": dict(sorted(histograms.items()))}


@dataclasses.dataclass
class FleetReport:
    """Everything one fleet run produced, ready to compare or render."""

    seed: int
    n_vehicles: int
    epochs: int
    workers: int
    mode: str
    #: Virtual wall-clock the fleet simulated (physical seconds × 1e9).
    sim_duration_ns: int
    #: Virtual compute makespan across the worker pool — the scaling
    #: denominator for vehicles/sec (see docs/fleet.md).
    compute_makespan_ns: int
    final_situations: Dict[str, str]
    transitions: Dict[str, List[Tuple[str, str, str, int]]]
    bundle_versions: Dict[str, object]
    apply_logs: Dict[str, List[Tuple[int, str]]]
    health: Dict[str, Dict[str, object]]
    counters: Dict[str, int]
    bus_stats: Dict[str, int]
    bus_tail: List[str]
    rollout: Dict[str, object]
    violations: List[str]
    offline_epochs: Dict[str, int]
    #: Supervisor roll-up (crashes/restores/quarantines); empty unless
    #: the resilience layer actually fired — keeps legacy fingerprints.
    resilience: Dict[str, object] = dataclasses.field(
        default_factory=dict)
    #: Fleet-wide gauge fold (last/min/max per series) — point-in-time,
    #: never fingerprinted.
    gauges: Dict[str, Dict[str, float]] = dataclasses.field(
        default_factory=dict)
    #: Fleet-wide bucket-merged histograms — host timing, never
    #: fingerprinted.
    histograms: Dict[str, Dict[str, object]] = dataclasses.field(
        default_factory=dict)
    #: Telemetry pipeline summary (rollups, SLO alerts, overhead);
    #: empty unless telemetry was enabled — keeps legacy fingerprints.
    #: The ``overhead`` subkey carries host CPU timings and is stripped
    #: before fingerprinting.
    telemetry: Dict[str, object] = dataclasses.field(
        default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def total_transitions(self) -> int:
        return sum(len(t) for t in self.transitions.values())

    def vehicles_per_second(self) -> float:
        """Simulated vehicle-epochs per second of virtual compute."""
        if self.compute_makespan_ns <= 0:
            return 0.0
        return (self.n_vehicles * self.epochs
                / (self.compute_makespan_ns / 1e9))

    def fingerprint(self) -> str:
        """Deterministic digest: same seed ⇒ same value, any workers."""
        doc = {
            "seed": self.seed,
            "n_vehicles": self.n_vehicles,
            "epochs": self.epochs,
            "mode": self.mode,
            "sim_duration_ns": self.sim_duration_ns,
            "final_situations": self.final_situations,
            "transitions": self.transitions,
            "bundle_versions": self.bundle_versions,
            "apply_logs": self.apply_logs,
            "health": self.health,
            "counters": self.counters,
            "bus_stats": self.bus_stats,
            "bus_tail": self.bus_tail,
            "rollout": self.rollout,
            "violations": self.violations,
            "offline_epochs": self.offline_epochs,
        }
        if self.resilience:
            doc["resilience"] = self.resilience
        if self.telemetry:
            doc["telemetry"] = {k: v for k, v in self.telemetry.items()
                                if k != "overhead"}
        payload = json.dumps(doc, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "vehicles": self.n_vehicles,
            "epochs": self.epochs,
            "workers": self.workers,
            "mode": self.mode,
            "sim_duration_ms": self.sim_duration_ns // 1_000_000,
            "compute_makespan_ms":
                self.compute_makespan_ns // 1_000_000,
            "vehicles_per_second": round(self.vehicles_per_second(), 3),
            "transitions": self.total_transitions,
            "bus": self.bus_stats,
            "rollout_state": self.rollout.get("state"),
            "committed_version": self.rollout.get("committed_version"),
            "violations": list(self.violations),
            "resilience": dict(self.resilience),
            "telemetry": dict(self.telemetry),
            "fingerprint": self.fingerprint(),
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"fleet seed {self.seed}: {self.n_vehicles} vehicle(s), "
            f"{self.epochs} epoch(s), {self.workers} worker(s), "
            f"mode {self.mode}",
            f"  virtual time {self.sim_duration_ns / 1e9:.1f}s, "
            f"compute makespan {self.compute_makespan_ns / 1e9:.3f}s "
            f"({self.vehicles_per_second():.0f} vehicle-epochs/s)",
            f"  {self.total_transitions} situation transition(s); "
            f"bus: {self.bus_stats.get('published', 0)} published, "
            f"{self.bus_stats.get('copies_delivered', 0)} delivered, "
            f"{self.bus_stats.get('copies_dropped', 0)} dropped",
            f"  rollout: {self.rollout.get('state')} "
            f"(committed v{self.rollout.get('committed_version')})",
        ]
        situations: Dict[str, int] = {}
        for name in self.final_situations.values():
            situations[name] = situations.get(name, 0) + 1
        lines.append("  final situations: " + ", ".join(
            f"{k}={v}" for k, v in sorted(situations.items())))
        if self.resilience:
            lines.append(
                f"  resilience: {self.resilience.get('crashes', 0)} "
                f"crash(es), {self.resilience.get('restores', 0)} "
                f"restore(s), {self.resilience.get('quarantined', 0)} "
                f"quarantined, "
                f"{self.resilience.get('checkpoints', 0)} checkpoint(s)")
            quarantined = self.resilience.get("quarantined_ids") or []
            if quarantined:
                lines.append("    quarantined: "
                             + ", ".join(sorted(quarantined)))
        if self.telemetry:
            slo = self.telemetry.get("slo", {})
            lines.append(
                f"  telemetry: {self.telemetry.get('frames', 0)} "
                f"frame(s), {self.telemetry.get('series_tracked', 0)} "
                f"series, {slo.get('alerts_total', 0)} SLO alert(s)")
            for alert in (slo.get("alerts") or [])[-3:]:
                lines.append(
                    f"    SLO {alert.get('slo')} "
                    f"[{alert.get('vehicle') or 'fleet'}] burn "
                    f"{alert.get('burn_short')}/{alert.get('burn_long')}"
                    f" at epoch {alert.get('epoch')}")
        if self.violations:
            lines.append(f"  INVARIANT VIOLATIONS "
                         f"({len(self.violations)}):")
            lines.extend(f"    {v}" for v in self.violations)
        else:
            lines.append("  all fleet invariants held")
        lines.append(f"  fingerprint {self.fingerprint()}")
        return lines
