"""Tests for metrics: instruments, collectors, exporters."""

import json

import pytest

from repro.obs import (DEFAULT_NS_BUCKETS, Counter, Gauge, Histogram,
                       MetricsRegistry, sample)
from repro.obs.metrics import percentile


class TestInstruments:
    def test_counter_monotonic(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_up_down(self):
        g = Gauge()
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2


class TestHistogram:
    def test_bounds_validated(self):
        with pytest.raises(ValueError):
            Histogram(bounds=())
        with pytest.raises(ValueError):
            Histogram(bounds=(2, 1))

    def test_record_and_summary(self):
        h = Histogram(bounds=(10, 100, 1000))
        for v in (5, 50, 50, 500):
            h.record(v)
        s = h.summary()
        assert s["count"] == 4
        assert s["min"] == 5 and s["max"] == 500
        assert s["mean"] == pytest.approx(151.25)

    def test_percentile_returns_bucket_upper_bound(self):
        h = Histogram(bounds=(10, 100, 1000))
        for v in (5, 50, 50, 500):
            h.record(v)
        assert h.percentile(50) == 100.0
        assert h.percentile(100) == 1000.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram(bounds=(10,))
        h.record(123456)
        assert h.percentile(99) == 123456.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.percentile(50) == 0.0
        assert h.summary()["count"] == 0

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram().percentile(0)
        with pytest.raises(ValueError):
            Histogram().percentile(101)

    def test_default_buckets_are_powers_of_two_ns(self):
        assert DEFAULT_NS_BUCKETS[0] == 256
        assert DEFAULT_NS_BUCKETS[-1] == 1 << 30


class TestRegistry:
    def test_same_name_labels_returns_same_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("x", {"k": "v"})
        b = reg.counter("x", {"k": "v"})
        c = reg.counter("x", {"k": "other"})
        assert a is b and a is not c

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.gauge("g", {"a": "1", "b": "2"})
        b = reg.gauge("g", {"b": "2", "a": "1"})
        assert a is b

    def test_histograms_named(self):
        reg = MetricsRegistry()
        reg.histogram("lat", {"hook": "open"})
        reg.histogram("lat", {"hook": "ioctl"})
        reg.histogram("other")
        assert len(reg.histograms_named("lat")) == 2

    def test_collector_values_read_live(self):
        reg = MetricsRegistry()
        state = {"n": 1}
        reg.register_collector(
            lambda: [sample("ext_total", None, "counter", state["n"])])
        assert "ext_total 1" in reg.to_prometheus()
        state["n"] = 7
        assert "ext_total 7" in reg.to_prometheus()

    def test_collector_registered_once(self):
        reg = MetricsRegistry()
        collector = lambda: [sample("x", None, "counter", 1)]
        reg.register_collector(collector)
        reg.register_collector(collector)
        assert reg.to_prometheus().count("\nx 1") == 1


class TestExport:
    def test_json_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c", {"m": "sack"}).inc(3)
        reg.gauge("g").set(1.5)
        reg.histogram("h").record(300)
        data = json.loads(reg.to_json())
        assert data["counters"] == [
            {"name": "c", "labels": {"m": "sack"}, "value": 3}]
        assert data["gauges"][0]["value"] == 1.5
        assert data["histograms"][0]["count"] == 1

    def test_prometheus_format(self):
        reg = MetricsRegistry()
        reg.counter("c_total", {"m": "sack"}).inc(2)
        reg.histogram("h_ns", bounds=(10, 100)).record(50)
        text = reg.to_prometheus()
        assert "# TYPE c_total counter" in text
        assert 'c_total{m="sack"} 2' in text
        assert 'h_ns_bucket{le="10"} 0' in text
        assert 'h_ns_bucket{le="100"} 1' in text
        assert 'h_ns_bucket{le="+Inf"} 1' in text
        assert "h_ns_sum 50" in text
        assert "h_ns_count 1" in text

    def test_empty_registry_exports_empty(self):
        reg = MetricsRegistry()
        assert reg.to_prometheus() == ""
        assert json.loads(reg.to_json()) == {
            "counters": [], "gauges": [], "histograms": []}


class TestPercentile:
    def test_index_is_floor_n_q_of_the_sorted_sample(self):
        assert percentile([100, 1, 3, 2], 0.5) == 3
        assert percentile([100, 1, 3, 2], 0.0) == 1
        assert percentile([100, 1, 3, 2], 1.0) == 100
        assert percentile([7], 0.99) == 7

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1], 1.5)

    def test_bench_timing_uses_the_same_rule(self):
        from repro.bench import timing
        assert timing.percentile is percentile
