"""Tests for repro.obs.telemetry: frames, series keys, bucket merging."""

import pytest

from repro.obs import (Observability, TELEMETRY_SCHEMA, sample,
                       histogram_percentile, merge_histograms,
                       series_key, snapshot_frame, split_series_key)


class TestSeriesKeys:
    def test_bare_name(self):
        assert series_key("lsm_denials_total", None) == "lsm_denials_total"
        assert series_key("lsm_denials_total", {}) == "lsm_denials_total"

    def test_labels_sorted(self):
        key = series_key("m", {"b": "2", "a": "1"})
        assert key == "m{a=1,b=2}"

    def test_round_trip(self):
        key = series_key("lsm_denials_total",
                         {"subject": "media_player", "hook": "file_open"})
        name, labels = split_series_key(key)
        assert name == "lsm_denials_total"
        assert labels == {"subject": "media_player", "hook": "file_open"}
        assert series_key(name, labels) == key

    def test_split_bare(self):
        assert split_series_key("foo_total") == ("foo_total", {})


class TestSnapshotFrame:
    def _obs(self):
        obs = Observability()
        obs.metrics.counter("events_total", {"kind": "speed"}).inc(4)
        obs.metrics.counter("events_total", {"kind": "gps"}).inc(2)
        obs.metrics.gauge("queue_depth").set(7)
        obs.metrics.histogram("latency_ns", bounds=(10, 100)).record(42)
        return obs

    def test_schema_and_identity(self):
        frame = snapshot_frame(self._obs(), "veh003", 5, 123_000)
        assert frame.schema == TELEMETRY_SCHEMA
        assert frame.vehicle_id == "veh003"
        assert frame.epoch == 5
        assert frame.at_ns == 123_000
        assert frame.counters["events_total{kind=speed}"] == 4.0
        assert frame.counters["events_total{kind=gps}"] == 2.0
        assert frame.gauges["queue_depth"] == 7.0
        assert frame.histograms["latency_ns"]["count"] == 1

    def test_deterministic_dict_excludes_histograms(self):
        frame = snapshot_frame(self._obs(), "veh000", 0, 0)
        det = frame.deterministic_dict()
        assert "histograms" not in det
        assert "histograms" in frame.to_dict()

    def test_seed_stable(self):
        a = snapshot_frame(self._obs(), "veh000", 1, 10).deterministic_dict()
        b = snapshot_frame(self._obs(), "veh000", 1, 10).deterministic_dict()
        assert a == b



def _frame_from_export(obs, vehicle_id, epoch, at_ns):
    """A frame built the long way, from the JSON export: counters on one
    rendered key are summed, a later gauge on one key wins, histograms
    keep only their bucket summary."""
    doc = obs.metrics.to_dict()
    counters, gauges, histograms = {}, {}, {}
    for row in doc["counters"]:
        key = series_key(row["name"], row["labels"])
        counters[key] = counters.get(key, 0.0) + float(row["value"])
    for row in doc["gauges"]:
        gauges[series_key(row["name"], row["labels"])] = float(row["value"])
    for row in doc["histograms"]:
        histograms[series_key(row["name"], row["labels"])] = {
            "count": int(row["count"]), "sum": float(row["sum"]),
            "min": float(row["min"]), "max": float(row["max"]),
            "bounds": list(row["bounds"]), "buckets": list(row["buckets"])}
    return {"schema": TELEMETRY_SCHEMA, "vehicle_id": vehicle_id,
            "epoch": epoch, "at_ns": at_ns, "counters": counters,
            "gauges": gauges, "histograms": histograms}


class TestFrameMatchesExport:
    """A frame carries exactly what the registry's JSON export says."""

    def _obs(self):
        obs = Observability()
        metrics = obs.metrics
        metrics.max_series_per_metric = 2
        metrics.counter("events_total", {"kind": "speed"}).inc(4)
        metrics.counter("events_total", {"kind": "gps"}).inc(2)
        metrics.counter("events_total", {"kind": "lidar"}).inc(9)  # dropped
        metrics.counter("boots_total").inc(3)
        metrics.counter("shared_total", {"src": "a"}).inc(5)
        metrics.gauge("queue_depth").set(7)
        metrics.gauge("shared_level").set(1.5)
        metrics.histogram("idle_ns", bounds=(10, 100))
        busy = metrics.histogram("busy_ns", {"cpu": "0"}, bounds=(10, 100))
        for value in (5, 42, 42, 500):
            busy.record(value)
        metrics.register_collector(lambda: [
            sample("shared_total", {"src": "a"}, "counter", 6),
            sample("shared_level", None, "gauge", 8.25),
            sample("collected_total", {"z": "1", "a": "2"}, "counter", 1),
        ])
        return obs

    def test_frame_equals_export_rules(self):
        obs = self._obs()
        frame = snapshot_frame(obs, "veh007", 3, 42_000)
        assert frame.to_dict() == _frame_from_export(obs, "veh007", 3,
                                                     42_000)

    def test_fold_rules(self):
        frame = snapshot_frame(self._obs(), "veh000", 0, 0)
        assert frame.counters["shared_total{src=a}"] == 11.0
        assert frame.gauges["shared_level"] == 8.25
        assert frame.counters["boots_total"] == 3.0
        assert frame.counters["collected_total{a=2,z=1}"] == 1.0
        assert frame.counters["metrics_series_dropped{metric=events_total}"] \
            == 1.0
        assert "events_total{kind=lidar}" not in frame.counters
        assert frame.histograms["idle_ns"] == {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "bounds": [10, 100], "buckets": [0, 0, 0]}
        assert set(frame.histograms["busy_ns{cpu=0}"]) == {
            "count", "sum", "min", "max", "bounds", "buckets"}

    def test_frame_does_not_share_live_lists(self):
        obs = self._obs()
        frame = snapshot_frame(obs, "veh000", 0, 0)
        busy = frame.histograms["busy_ns{cpu=0}"]
        before = (busy["count"], list(busy["buckets"]), list(busy["bounds"]))
        obs.metrics.histogram("busy_ns", {"cpu": "0"},
                              bounds=(10, 100)).record(50)
        assert (busy["count"], busy["buckets"], busy["bounds"]) == before
        again = snapshot_frame(obs, "veh000", 0, 0)
        assert again.histograms["busy_ns{cpu=0}"]["count"] == 5


class TestMergeHistograms:
    def _row(self, buckets, count, total, lo, hi, bounds=(10, 100)):
        return {"count": count, "sum": total, "min": lo, "max": hi,
                "bounds": list(bounds), "buckets": list(buckets)}

    def test_bucket_merge(self):
        merged = merge_histograms([
            self._row((1, 2, 0), 3, 60.0, 5, 80),
            self._row((0, 1, 1), 2, 250.0, 50, 200),
        ])
        assert merged["count"] == 5
        assert merged["sum"] == pytest.approx(310.0)
        assert merged["buckets"] == [1, 3, 1]
        assert merged["min"] == 5 and merged["max"] == 200

    def test_mismatched_bounds_skipped(self):
        merged = merge_histograms([
            self._row((1, 0, 0), 1, 5.0, 5, 5),
            self._row((9, 9), 18, 999.0, 1, 999, bounds=(50,)),
        ])
        assert merged["count"] == 1
        assert merged["buckets"] == [1, 0, 0]

    def test_empty_rows(self):
        assert merge_histograms([]) is None

    def test_empty_histogram_does_not_poison_min_max(self):
        merged = merge_histograms([
            self._row((0, 0, 0), 0, 0.0, 0, 0),
            self._row((0, 1, 0), 1, 42.0, 42, 42),
        ])
        assert merged["min"] == 42 and merged["max"] == 42


class TestHistogramPercentile:
    def test_upper_bound_convention(self):
        summary = {"count": 4, "bounds": [10, 100, 1000],
                   "buckets": [1, 2, 1, 0], "max": 500}
        assert histogram_percentile(summary, 50) == 100.0
        assert histogram_percentile(summary, 100) == 1000.0

    def test_overflow_bucket_uses_max(self):
        summary = {"count": 1, "bounds": [10],
                   "buckets": [0, 1], "max": 123456.0}
        assert histogram_percentile(summary, 99) == 123456.0

    def test_empty(self):
        assert histogram_percentile({"count": 0, "bounds": [],
                                     "buckets": []}, 50) == 0.0
