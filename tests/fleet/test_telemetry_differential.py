"""Differential test of the telemetry frame reader and the aggregator.

``MetricsRegistry.series`` reads instruments through keys rendered at
registration and collector rows without building a ``Sample`` each, and
``TelemetryAggregator.ingest`` stores a counter's delta only when the
counter moved.  The oracles below are the straightforward forms — render
every key per frame from ``_collected()`` samples, store a delta (zero
or not) per counter per frame — and over a seeded telemetry-on fleet
run both must give identical frames, window sums and rollup digests.
"""

from collections import deque

import pytest

from repro.fleet import telemetry as fleet_telemetry
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, TrafficDriver
from repro.fleet.telemetry import TelemetryAggregator
from repro.obs.metrics import series_key
from repro.obs.telemetry import (TELEMETRY_SCHEMA, TelemetryFrame,
                                 snapshot_frame, split_series_key)
from repro.vehicle.ivi import DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES


def oracle_series(registry):
    """Every series rendered afresh, collector rows read as samples."""
    counters, gauges, histograms = {}, {}, {}
    for (name, labels), counter in registry._counters.items():
        key = series_key(name, dict(labels))
        counters[key] = counters.get(key, 0.0) + float(counter.value)
    for (name, labels), gauge in registry._gauges.items():
        gauges[series_key(name, dict(labels))] = float(gauge.value)
    for row in registry._collected():
        key = series_key(row.name, dict(row.labels))
        if row.kind == "counter":
            counters[key] = counters.get(key, 0.0) + float(row.value)
        else:
            gauges[key] = float(row.value)
    for (name, labels), h in registry._histograms.items():
        histograms[series_key(name, dict(labels))] = {
            "count": h.count, "sum": float(h.total),
            "min": float(h.min or 0.0), "max": float(h.max or 0.0),
            "bounds": list(h.bounds), "buckets": list(h.bucket_counts)}
    return counters, gauges, histograms


class OracleAggregator(TelemetryAggregator):
    """Ingest in sorted key order, one delta per counter per frame."""

    def ingest(self, frame):
        self.frames_total += 1
        self.last_epoch = max(self.last_epoch, frame.epoch)
        vid, epoch = frame.vehicle_id, frame.epoch
        self.last_seen[vid] = epoch
        for key in sorted(frame.counters):
            series = (vid, key)
            hist = self._counter_hist.get(series)
            if hist is None:
                if not self._admit(vid, key):
                    continue
                hist = self._counter_hist[series] = \
                    deque(maxlen=self.long_window)
                prev = 0.0
            else:
                prev = self._counter_last[series]
            value = self._counter_last[series] = frame.counters[key]
            hist.append((epoch, value - prev if value > prev else 0.0))
        for store, values in ((self._gauge_last, frame.gauges),
                              (self._hist_last, frame.histograms)):
            for key in sorted(values):
                series = (vid, key)
                if series in store or self._admit(vid, key):
                    store[series] = values[key]


def frame_view(frame):
    return {**frame.deterministic_dict(), "histograms": frame.histograms}


@pytest.fixture(scope="module")
def fleet_frames():
    """Every frame of a seeded telemetry-on fleet taking a bundle, each
    checked against the oracle reader as the fleet captured it."""
    frames = []
    original = fleet_telemetry.snapshot_frame

    def checked(obs, vehicle_id, epoch, at_ns):
        frame = original(obs, vehicle_id, epoch, at_ns)
        counters, gauges, histograms = oracle_series(obs.metrics)
        oracle = TelemetryFrame(TELEMETRY_SCHEMA, vehicle_id, epoch, at_ns,
                                counters, gauges, histograms)
        assert frame_view(frame) == frame_view(oracle)
        frames.append(frame)
        return frame

    seed = 5
    config = FleetConfig(n_vehicles=6, seed=seed, mode="apparmor",
                         telemetry=True)
    fleet = Fleet(config, driver=TrafficDriver(seed))
    fleet.stage_rollout(make_bundle(
        1, DEFAULT_SACK_POLICY, {"ivi": IVI_APPARMOR_PROFILES},
        signer=BundleSigner(config.fleet_key)))
    fleet_telemetry.snapshot_frame = checked
    try:
        fleet.run(16)
    finally:
        fleet_telemetry.snapshot_frame = original
    return fleet, frames


def test_fleet_frames_match_the_oracle_reader(fleet_frames):
    fleet, frames = fleet_frames
    assert len(frames) == fleet.telemetry.aggregator.frames_total == 6 * 16
    # The run moved counters and left others still: both kinds of frame.
    moved = {key for a, b in zip(frames, frames[6:])
             for key in a.counters if a.counters[key] != b.counters[key]}
    assert moved and moved != set(frames[0].counters)


def test_fleet_rollup_digest_matches_the_oracle_ingest(fleet_frames):
    fleet, frames = fleet_frames
    oracle = OracleAggregator(fleet.telemetry.aggregator.epoch_duration_ns,
                              fleet.config.telemetry_short_window_epochs,
                              fleet.config.telemetry_long_window_epochs)
    for frame in frames:
        oracle.ingest(frame)
    aggregator = fleet.telemetry.aggregator
    assert aggregator.rollup_digest() == oracle.rollup_digest()
    assert aggregator.to_openmetrics() == oracle.to_openmetrics()


def restarts(frames, n_vehicles=6, epochs=4):
    """Frames after the run in which every vehicle's counters restart
    from zero: some climb again, some stay down."""
    last = frames[-n_vehicles:]
    out = []
    for step in range(epochs):
        for frame in last:
            counters = {key: float(step * (index % 3))
                        for index, key in enumerate(sorted(frame.counters))}
            out.append(TelemetryFrame(
                frame.schema, frame.vehicle_id, frame.epoch + 1 + step,
                frame.at_ns, counters, frame.gauges, frame.histograms))
    return out


@pytest.mark.parametrize("max_series", [7, 60, 4096])
@pytest.mark.parametrize("windows", [(1, 1), (2, 5), (3, 12)])
def test_ingest_matches_oracle_at_every_epoch(fleet_frames, max_series,
                                              windows):
    _, frames = fleet_frames
    frames = frames + restarts(frames)
    short, long_ = windows
    fast = TelemetryAggregator(10 ** 9, short, long_, max_series=max_series)
    oracle = OracleAggregator(10 ** 9, short, long_, max_series=max_series)
    names = sorted({split_series_key(key)[0]
                    for frame in frames for key in frame.counters})
    for index, frame in enumerate(frames):
        fast.ingest(frame)
        oracle.ingest(frame)
        if (index + 1) % 6:
            continue            # compare at each epoch's last frame
        epoch = frame.epoch
        assert fast.rollup_digest(epoch) == oracle.rollup_digest(epoch)
        for name in names:
            for window in range(1, long_ + 1):
                assert fast.window_deltas(name, epoch, window) == \
                    oracle.window_deltas(name, epoch, window)
    assert fast._counter_last == oracle._counter_last
    assert fast._gauge_last == oracle._gauge_last
    assert fast._by_name == oracle._by_name
    assert fast.series_dropped == oracle.series_dropped


def test_snapshot_reads_collectors_like_samples(fleet_frames):
    fleet, _ = fleet_frames
    for vehicle in fleet.vehicles.values():
        obs = vehicle.world.kernel.obs
        frame = snapshot_frame(obs, vehicle.vehicle_id, 0, 0)
        assert (frame.counters, frame.gauges, frame.histograms) == \
            oracle_series(obs.metrics)
