"""Unit tests for repro.fleet.telemetry: aggregator windows, cardinality
budget, SLO specs and the multi-window burn-rate engine."""

import pytest

from repro.fleet.telemetry import (BURN_CLAMP, SloEngine, SloSpec,
                                   TelemetryAggregator, default_slos,
                                   parse_slo)
from repro.obs.telemetry import TELEMETRY_SCHEMA, TelemetryFrame

EPOCH_NS = 1_000_000_000          # 1 virtual second per epoch


def frame(vid, epoch, counters=None, gauges=None, histograms=None):
    return TelemetryFrame(schema=TELEMETRY_SCHEMA, vehicle_id=vid,
                          epoch=epoch, at_ns=epoch * EPOCH_NS,
                          counters=dict(counters or {}),
                          gauges=dict(gauges or {}),
                          histograms=dict(histograms or {}))


def agg(**kwargs):
    kwargs.setdefault("epoch_duration_ns", EPOCH_NS)
    kwargs.setdefault("short_window_epochs", 2)
    kwargs.setdefault("long_window_epochs", 4)
    return TelemetryAggregator(**kwargs)


class TestAggregatorWindows:
    def test_counter_deltas_not_cumulative_values(self):
        a = agg()
        for epoch, value in enumerate((100, 110, 130)):
            a.ingest(frame("veh000", epoch, {"events_total": value}))
        # Short window (2 epochs) at epoch 2: deltas 10 + 20 over 2 s.
        assert a.fleet_rate("events_total", 2, 2) == pytest.approx(15.0)

    def test_fleet_rate_sums_vehicles(self):
        a = agg()
        for epoch in range(2):
            a.ingest(frame("veh000", epoch, {"c": 10 * (epoch + 1)}))
            a.ingest(frame("veh001", epoch, {"c": 30 * (epoch + 1)}))
        assert a.fleet_rate("c", 1, 1) == pytest.approx(40.0)

    def test_label_subset_matcher(self):
        a = agg()
        a.ingest(frame("veh000", 0, {"avc_total{result=hit}": 0,
                                     "avc_total{result=miss}": 0}))
        a.ingest(frame("veh000", 1, {"avc_total{result=hit}": 8,
                                     "avc_total{result=miss}": 2}))
        assert a.fleet_rate("avc_total{result=hit}", 1, 1) == \
            pytest.approx(8.0)
        assert a.fleet_rate("avc_total", 1, 1) == pytest.approx(10.0)

    def test_ratio_none_without_traffic(self):
        a = agg()
        a.ingest(frame("veh000", 0, {"hits": 0, "lookups": 0}))
        assert a.fleet_ratio("hits", "lookups", 0, 2) is None

    def test_percentiles_across_vehicles(self):
        a = agg()
        for i, delta in enumerate((1, 2, 3, 100)):
            vid = f"veh{i:03d}"
            a.ingest(frame(vid, 0, {"c": 0}))
            a.ingest(frame(vid, 1, {"c": delta}))
        # repro.obs.metrics.percentile: index floor(n * q) of the sorted
        # rates, so p50 of four rates is the third.
        assert a.rate_percentile("c", 1, 1, 50) == pytest.approx(3.0)
        assert a.rate_percentile("c", 1, 1, 99) == pytest.approx(100.0)
        assert agg().rate_percentile("c", 1, 1, 50) == 0.0

    def test_top_series_ranked_by_window_delta(self):
        a = agg()
        a.ingest(frame("veh000", 0, {"denials{subject=a}": 0,
                                     "denials{subject=b}": 0}))
        a.ingest(frame("veh000", 1, {"denials{subject=a}": 2,
                                     "denials{subject=b}": 9}))
        top = a.top_series("denials", 1, 2, n=5)
        assert top[0] == ("denials{subject=b}", 9.0)
        assert top[1] == ("denials{subject=a}", 2.0)

    def test_old_epochs_fall_out_of_window(self):
        a = agg(short_window_epochs=1, long_window_epochs=2)
        a.ingest(frame("veh000", 0, {"c": 50}))
        a.ingest(frame("veh000", 1, {"c": 50}))
        a.ingest(frame("veh000", 2, {"c": 50}))
        # The initial cumulative delta (50) happened at epoch 0, outside
        # the (epoch-2, epoch] long window at epoch 2... epoch 1..2 moved
        # nothing, so the rate is zero.
        assert a.fleet_rate("c", 2, 2) == 0.0


class TestAggregatorBudget:
    def test_drop_and_count_past_budget(self):
        a = agg(max_series=2)
        a.ingest(frame("veh000", 0, {"c{i=0}": 1, "c{i=1}": 1,
                                     "c{i=2}": 1, "c{i=3}": 1}))
        assert a.series_tracked == 2
        assert a.series_dropped == {"c": 2}

    def test_existing_series_keep_updating(self):
        a = agg(max_series=1)
        a.ingest(frame("veh000", 0, {"c{i=0}": 1, "c{i=1}": 1}))
        a.ingest(frame("veh000", 1, {"c{i=0}": 5, "c{i=1}": 5}))
        assert a.fleet_rate("c{i=0}", 1, 1) == pytest.approx(4.0)
        assert a.series_dropped == {"c": 2}

    def test_drop_order_is_deterministic(self):
        # Sorted-key ingest means the budget always admits the same
        # series regardless of dict insertion order.
        results = []
        for order in (("c{i=0}", "c{i=1}", "c{i=2}"),
                      ("c{i=2}", "c{i=1}", "c{i=0}")):
            a = agg(max_series=1)
            a.ingest(frame("veh000", 0, {k: 1 for k in order}))
            results.append(sorted(a._counter_last))
        assert results[0] == results[1] == [("veh000", "c{i=0}")]


class TestIngestOrder:
    """A repeat frame updates known series and admits new ones in sorted
    key order, whatever the frame's dict insertion order."""

    SECOND = {"c{i=1}": 10, "c{i=3}": 0, "c{i=0}": 2, "c{i=2}": 7,
              "c{i=4}": 3, "d": 5}

    def _ingest(self, keys):
        a = agg(max_series=5)
        a.ingest(frame("veh000", 0, {"c{i=1}": 4, "c{i=3}": 1}, {"g": 1}))
        a.ingest(frame("veh000", 1, {k: self.SECOND[k] for k in keys},
                       {"h": 2, "g": 3}))
        return a

    def test_reverse_insertion_matches_sorted(self):
        ordered = self._ingest(sorted(self.SECOND))
        reverse = self._ingest(list(reversed(list(self.SECOND))))
        for a in (ordered, reverse):
            assert list(a._by_name.items()) == [
                ("c", [("veh000", "c{i=1}"), ("veh000", "c{i=3}"),
                       ("veh000", "c{i=0}"), ("veh000", "c{i=2}")]),
                ("g", [("veh000", "g")])]
            assert a.series_dropped == {"c": 1, "d": 1, "h": 1}
            assert a.window_deltas("c", 1, 1) == {"veh000": 15.0}
            assert a._gauge_last == {("veh000", "g"): 3}
        for window in (1, 2):
            assert reverse.window_deltas("c", 1, window) == \
                ordered.window_deltas("c", 1, window)

    def test_counter_going_down_gives_zero_delta(self):
        a = self._ingest(list(self.SECOND))
        assert a.window_deltas("c{i=3}", 1, 1) == {"veh000": 0.0}
        assert a._counter_last[("veh000", "c{i=3}")] == 0


class TestRollups:
    def _soak(self, a):
        for epoch in range(4):
            for vid in ("veh000", "veh001"):
                a.ingest(frame(vid, epoch, {"events_total": 10 * epoch}))

    def test_rollup_shape(self):
        a = agg()
        self._soak(a)
        roll = a.rollups()
        assert roll["epoch"] == 3
        short = roll["windows"]["short"]
        assert short["epochs"] == 2
        row = short["series"]["events_total"]
        assert set(row) == {"fleet_per_s", "p50_per_s", "p99_per_s"}

    def test_digest_stable(self):
        a, b = agg(), agg()
        self._soak(a)
        self._soak(b)
        assert a.rollup_digest() == b.rollup_digest()

    def test_digest_moves_with_data(self):
        a, b = agg(), agg()
        self._soak(a)
        self._soak(b)
        b.ingest(frame("veh000", 3, {"events_total": 999}))
        assert a.rollup_digest() != b.rollup_digest()


class TestSloSpecs:
    def test_parse_max(self):
        slo = parse_slo("denial_rate<=5")
        assert slo.kind == "rate" and slo.op == "max"
        assert slo.threshold == 5.0
        assert slo.series == "lsm_denials_total"

    def test_parse_min_ratio(self):
        slo = parse_slo("event_accept_ratio>=0.9")
        assert slo.kind == "ratio" and slo.op == "min"
        assert slo.numerator == "sackfs_events_accepted_total"
        assert slo.denominator == "sackfs_events_received_total"

    def test_parse_rejects_unknown_alias(self):
        with pytest.raises(ValueError, match="unknown SLO alias"):
            parse_slo("made_up<=1")

    def test_parse_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            parse_slo("denial_rate")
        with pytest.raises(ValueError):
            parse_slo("denial_rate<=lots")

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SloSpec("x", "bogus", "max", 1.0, series="s")
        with pytest.raises(ValueError):
            SloSpec("x", "rate", "max", 1.0)        # no series
        with pytest.raises(ValueError):
            SloSpec("x", "ratio", "max", 1.0, numerator="n")

    def test_default_slos_deterministic_kinds_only(self):
        assert all(slo.kind in ("rate", "ratio") for slo in default_slos())


class TestBurnRate:
    def test_max_burn_is_pressure_against_threshold(self):
        slo = SloSpec("x", "rate", "max", 10.0, series="s")
        assert SloEngine.burn_rate(slo, 5.0) == pytest.approx(0.5)
        assert SloEngine.burn_rate(slo, 20.0) == pytest.approx(2.0)

    def test_max_zero_threshold_clamps(self):
        slo = SloSpec("x", "rate", "max", 0.0, series="s")
        assert SloEngine.burn_rate(slo, 0.0) == 0.0
        assert SloEngine.burn_rate(slo, 0.001) == BURN_CLAMP

    def test_min_burn_inverts(self):
        slo = SloSpec("x", "rate", "min", 10.0, series="s")
        assert SloEngine.burn_rate(slo, 20.0) == pytest.approx(0.5)
        assert SloEngine.burn_rate(slo, 5.0) == pytest.approx(2.0)
        assert SloEngine.burn_rate(slo, 0.0) == BURN_CLAMP


class TestSloEngine:
    def _engine(self, slos, **agg_kwargs):
        a = agg(**agg_kwargs)
        return SloEngine(tuple(slos), a), a

    def _feed(self, a, epochs, delta_per_epoch, vid="veh000"):
        total = 0
        for epoch in range(epochs):
            a.ingest(frame(vid, epoch, {"c": total}))
            total += delta_per_epoch

    def test_alert_needs_both_windows(self):
        slo = SloSpec("x", "rate", "max", 5.0, series="c")
        engine, a = self._engine([slo])
        # Burn high in the short window only: quiet history, then a
        # one-epoch spike of 8 deltas -> short rate 4/s < threshold
        # (2-epoch window), long rate even lower: no alert.
        self._feed(a, 4, 0)
        a.ingest(frame("veh000", 3, {"c": 8}))
        assert engine.evaluate(3, ("veh000",)) == []

    def test_sustained_burn_alerts(self):
        slo = SloSpec("x", "rate", "max", 5.0, series="c")
        engine, a = self._engine([slo])
        self._feed(a, 6, 50)
        alerts = engine.evaluate(5, ("veh000",))
        assert len(alerts) == 1
        alert = alerts[0]
        assert alert.slo == "x" and alert.vehicle_id == ""
        assert alert.burn_short > 1.0 and alert.burn_long > 1.0
        assert engine.alerts_total == 1
        assert "x" in engine.burning

    def test_warmup_suppresses_cold_start(self):
        slo = SloSpec("x", "rate", "max", 0.0, series="c")
        engine, a = self._engine([slo], long_window_epochs=4)
        self._feed(a, 2, 50)
        # Epoch 1 < long window 4: silent even though burn is clamped.
        assert engine.evaluate(1, ("veh000",)) == []

    def test_no_data_cannot_violate_min_objective(self):
        slo = SloSpec("ratio", "ratio", "min", 0.5,
                      numerator="hits", denominator="lookups")
        engine, a = self._engine([slo])
        for epoch in range(6):
            a.ingest(frame("veh000", epoch, {"hits": 0, "lookups": 0}))
        assert engine.evaluate(5, ("veh000",)) == []

    def test_per_vehicle_fanout_names_offender(self):
        slo = SloSpec("x", "rate", "max", 5.0, series="c",
                      per_vehicle=True)
        engine, a = self._engine([slo])
        self._feed(a, 6, 50, vid="veh001")
        self._feed(a, 6, 0, vid="veh000")
        alerts = engine.evaluate(5, ("veh000", "veh001"))
        assert [alert.vehicle_id for alert in alerts] == ["veh001"]
        assert "x:veh001" in engine.burning

    def test_per_vehicle_rates_measured_once_per_window(self):
        slo = SloSpec("x", "rate", "max", 5.0, series="c",
                      per_vehicle=True)
        engine, a = self._engine([slo])
        vids = tuple(f"veh{i:03d}" for i in range(8))
        for i, vid in enumerate(vids):
            self._feed(a, 6, 10 * i, vid=vid)
        calls = []
        measure = a.per_vehicle_rates
        a.per_vehicle_rates = lambda *args: calls.append(args) or \
            measure(*args)
        alerts = engine.evaluate(5, vids)
        rows = engine.status_rows(5, vids)
        assert calls == [("c", 5, 2), ("c", 5, 4)] * 2
        short = measure("c", 5, 2)
        assert [alert.vehicle_id for alert in alerts] == \
            [vid for vid in vids if short[vid] > 5.0]
        worst = max(vids, key=lambda vid: short[vid])
        assert rows[0]["scope"] == worst
        assert rows[0]["measured_short"] == round(short[worst], 4)
        assert rows[0]["state"] == "ALERT"

    def test_recovery_clears_burning(self):
        slo = SloSpec("x", "rate", "max", 5.0, series="c")
        engine, a = self._engine([slo], short_window_epochs=1,
                                 long_window_epochs=2)
        self._feed(a, 4, 50)
        engine.evaluate(3, ("veh000",))
        assert "x" in engine.burning
        for epoch in (4, 5, 6):
            a.ingest(frame("veh000", epoch, {"c": 150}))
            engine.evaluate(epoch, ("veh000",))
        assert "x" not in engine.burning

    def test_status_rows_one_per_objective(self):
        slos = [SloSpec("x", "rate", "max", 5.0, series="c"),
                SloSpec("y", "ratio", "min", 0.5,
                        numerator="hits", denominator="lookups")]
        engine, a = self._engine(slos)
        self._feed(a, 6, 50)
        engine.evaluate(5, ("veh000",))
        rows = engine.status_rows(5, ("veh000",))
        assert len(rows) == 2
        assert rows[0]["state"] == "ALERT"
        assert rows[1]["state"] == "no data"

    def test_summary_serializes(self):
        import json
        slo = SloSpec("x", "rate", "max", 5.0, series="c")
        engine, a = self._engine([slo])
        self._feed(a, 6, 50)
        engine.evaluate(5, ("veh000",))
        doc = engine.summary()
        assert doc["alerts_total"] == 1
        json.dumps(doc)                  # burns are clamped, not inf
