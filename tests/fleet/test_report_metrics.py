"""Regression tests for the fleet report's full-instrument roll-up
(satellite: gauges and histograms in the report, not just counters)."""

import pytest

from repro.fleet.orchestrator import Fleet, FleetConfig
from repro.fleet.report import aggregate_metrics
from repro.obs import MetricsRegistry


def _registry(counter=0, gauge=None, hist_values=()):
    reg = MetricsRegistry()
    if counter:
        reg.counter("events_total", {"kind": "speed"}).inc(counter)
    if gauge is not None:
        reg.gauge("queue_depth").set(gauge)
    for v in hist_values:
        reg.histogram("latency_ns", bounds=(10, 100)).record(v)
    return reg.to_dict()


class TestAggregateMetrics:
    def test_counters_sum(self):
        brake = MetricsRegistry()
        brake.counter("events_total", {"kind": "brake"}).inc(2)
        agg = aggregate_metrics([_registry(counter=3), brake.to_dict(),
                                 _registry(counter=4)])
        # Per series key, summed across kernels, in sorted key order.
        assert list(agg["counters"].items()) == [
            ("events_total{kind=brake}", 2),
            ("events_total{kind=speed}", 7)]
        assert isinstance(agg["counters"]["events_total{kind=speed}"],
                          int)

    def test_gauges_last_min_max(self):
        agg = aggregate_metrics([_registry(gauge=5.0),
                                 _registry(gauge=1.0),
                                 _registry(gauge=3.0)])
        row = agg["gauges"]["queue_depth"]
        assert row == {"last": 3.0, "min": 1.0, "max": 5.0}

    def test_histograms_bucket_merge(self):
        agg = aggregate_metrics([_registry(hist_values=(5, 50)),
                                 _registry(hist_values=(500,))])
        row = agg["histograms"]["latency_ns"]
        assert row["count"] == 3
        assert row["sum"] == pytest.approx(555.0)
        assert row["buckets"] == [1, 1, 1]
        assert row["min"] == 5 and row["max"] == 500

    def test_empty_input(self):
        agg = aggregate_metrics([])
        assert agg == {"counters": {}, "gauges": {}, "histograms": {}}


class TestReportCarriesAllInstruments:
    def test_fleet_report_has_gauges_and_histograms(self):
        fleet = Fleet(FleetConfig(n_vehicles=3, seed=7))
        report = fleet.run(4).report
        assert report.counters
        assert report.gauges
        assert report.histograms
        merged = next(iter(report.histograms.values()))
        assert {"count", "sum", "bounds", "buckets"} <= set(merged)

    def test_gauges_and_histograms_not_fingerprinted(self):
        # Histograms carry host perf_counter timing; gauges ride along
        # with them outside the fingerprint so the full-instrument
        # roll-up can never destabilize reproducibility checks.
        fleet_a = Fleet(FleetConfig(n_vehicles=3, seed=7))
        fleet_b = Fleet(FleetConfig(n_vehicles=3, seed=7))
        assert fleet_a.run(4).fingerprint == fleet_b.run(4).fingerprint
