"""Trajectory store: persistence, direction inference, regression gate,
trend-table report."""

import json

import pytest

from repro.bench.trajectory import (Trajectory, TRAJECTORY_SCHEMA,
                                    check_metrics, direction_of,
                                    load_all, load_or_new,
                                    render_report, render_trend_table,
                                    trajectory_path)


class TestDirections:
    def test_higher_is_better(self):
        assert direction_of("fleet_mp_host_speedup") == "higher"
        assert direction_of("avc_speedup") == "higher"
        assert direction_of("speedup_1_to_4") == "higher"
        assert direction_of("abac_ratio") == "higher"

    def test_lower_is_better(self):
        assert direction_of("avc_cached_ns_per_op") == "lower"
        assert direction_of("hook_p99_ns") == "lower"
        assert direction_of("peak_mem_kb") == "lower"
        assert direction_of("transport_us") == "lower"
        assert direction_of("fleet_epoch_wall_ms") == "lower"
        assert direction_of("telemetry_host_overhead_pct") == "lower"
        assert direction_of("fleet_ipc_crossings") == "lower"
        assert direction_of("chaos_violations") == "lower"

    def test_unknown_is_none(self):
        assert direction_of("chaos_transitions") is None
        assert direction_of("rule_count") is None


class TestPersistence:
    def test_round_trip(self, tmp_path):
        trajectory = Trajectory("avc")
        trajectory.append({"avc_speedup": 15.0}, seed=3, source="test",
                          sha="abc123", timestamp="2026-01-01T00:00:00")
        path = trajectory_path(str(tmp_path), "avc")
        trajectory.save(path)
        loaded = Trajectory.load(path)
        assert loaded.metric_set == "avc"
        assert loaded.records[0]["git_sha"] == "abc123"
        assert loaded.latest_value("avc_speedup") == 15.0

    def test_schema_enforced(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps({"schema": "nope", "records": []}))
        with pytest.raises(ValueError, match=TRAJECTORY_SCHEMA):
            Trajectory.load(str(path))

    def test_append_rejects_non_numeric(self):
        trajectory = Trajectory("avc")
        with pytest.raises(ValueError, match="numeric"):
            trajectory.append({"avc_speedup": "fast"})
        with pytest.raises(ValueError, match="numeric"):
            trajectory.append({"avc_speedup": True})

    def test_load_or_new_and_load_all(self, tmp_path):
        assert load_or_new(str(tmp_path), "avc").records == []
        trajectory = Trajectory("avc")
        trajectory.append({"avc_speedup": 1.0}, sha="s")
        trajectory.save(trajectory_path(str(tmp_path), "avc"))
        sets = [t.metric_set for t in load_all(str(tmp_path))]
        assert sets == ["avc"]

    def test_latest_value_scans_backwards(self):
        trajectory = Trajectory("avc")
        trajectory.append({"a_per_second": 1.0}, sha="s1")
        trajectory.append({"b_ns": 5.0}, sha="s2")
        trajectory.append({"a_per_second": 3.0}, sha="s3")
        assert trajectory.latest_value("a_per_second") == 3.0
        assert trajectory.latest_value("b_ns") == 5.0
        assert trajectory.latest_value("missing") is None

    def test_latest_value_prefers_same_source(self):
        # Two suites fold the same metric over different cell
        # populations; each must baseline against its own lineage.
        trajectory = Trajectory("fleet")
        trajectory.append({"fleet_mp_host_speedup": 50.0},
                          source="suite:smoke", sha="s1")
        trajectory.append({"fleet_mp_host_speedup": 194.0},
                          source="suite:mp", sha="s2")
        assert trajectory.latest_value("fleet_mp_host_speedup",
                                       source="suite:smoke") == 50.0
        assert trajectory.latest_value("fleet_mp_host_speedup",
                                       source="suite:mp") == 194.0
        # unscoped lookup still sees the newest record of any source
        assert trajectory.latest_value(
            "fleet_mp_host_speedup") == 194.0

    def test_latest_value_falls_back_across_sources(self):
        # A new suite's first run inherits whatever baseline exists
        # rather than silently passing with none.
        trajectory = Trajectory("fleet")
        trajectory.append({"fleet_mp_host_speedup": 3.97},
                          source="suite:smoke", sha="s1")
        assert trajectory.latest_value("fleet_mp_host_speedup",
                                       source="suite:mp") == 3.97


class TestCheck:
    def _trajectory(self, **metrics):
        trajectory = Trajectory("fleet")
        trajectory.append(metrics, sha="base")
        return trajectory

    def test_within_tolerance_passes(self):
        trajectory = self._trajectory(fleet_mp_host_speedup=100.0)
        assert check_metrics(trajectory,
                             {"fleet_mp_host_speedup": 95.0},
                             {"fleet_mp_host_speedup": 10.0}) == []

    def test_throughput_drop_fails(self):
        trajectory = self._trajectory(fleet_mp_host_speedup=100.0)
        regressions = check_metrics(
            trajectory, {"fleet_mp_host_speedup": 50.0},
            {"fleet_mp_host_speedup": 10.0})
        assert len(regressions) == 1
        regression = regressions[0]
        assert regression.metric == "fleet_mp_host_speedup"
        assert regression.delta_pct == pytest.approx(-50.0)
        assert "fleet/" in str(regression)

    def test_throughput_gain_never_fails(self):
        trajectory = self._trajectory(fleet_mp_host_speedup=100.0)
        assert check_metrics(trajectory,
                             {"fleet_mp_host_speedup": 500.0},
                             {"fleet_mp_host_speedup": 10.0}) == []

    def test_latency_rise_fails(self):
        trajectory = self._trajectory(hook_p99_ns=1000.0)
        regressions = check_metrics(trajectory,
                                    {"hook_p99_ns": 2000.0},
                                    {"hook_p99_ns": 25.0})
        assert len(regressions) == 1
        assert regressions[0].delta_pct == pytest.approx(100.0)

    def test_latency_drop_never_fails(self):
        trajectory = self._trajectory(hook_p99_ns=1000.0)
        assert check_metrics(trajectory, {"hook_p99_ns": 10.0},
                             {"hook_p99_ns": 25.0}) == []

    def test_none_tolerance_uses_default(self):
        trajectory = self._trajectory(fleet_mp_host_speedup=100.0)
        # default tolerance is 20%: -19% passes, -21% fails
        assert check_metrics(trajectory,
                             {"fleet_mp_host_speedup": 81.0},
                             {"fleet_mp_host_speedup": None}) == []
        assert check_metrics(trajectory,
                             {"fleet_mp_host_speedup": 79.0},
                             {"fleet_mp_host_speedup": None})

    def test_missing_baseline_or_metric_skipped(self):
        trajectory = self._trajectory(fleet_mp_host_speedup=100.0)
        # gate over a metric the run never produced
        assert check_metrics(trajectory, {},
                             {"fleet_mp_host_speedup": 10.0}) == []
        # gate over a metric with no committed baseline
        assert check_metrics(trajectory, {"other_per_second": 5.0},
                             {"other_per_second": 10.0}) == []

    def test_zero_baseline_lower_regresses_on_any_count(self):
        # A count gate whose baseline is 0 (no IPC crossings) has no
        # percentage scale: the first crossing is the regression.
        trajectory = self._trajectory(fleet_ipc_crossings=0.0)
        gates = {"fleet_ipc_crossings": 1.0}
        assert check_metrics(trajectory, {"fleet_ipc_crossings": 0.0},
                             gates) == []
        regressions = check_metrics(
            trajectory, {"fleet_ipc_crossings": 3.0}, gates)
        assert [r.metric for r in regressions] == ["fleet_ipc_crossings"]
        assert regressions[0].baseline == 0.0
        assert regressions[0].current == 3.0

    def test_zero_baseline_higher_cannot_regress(self):
        trajectory = self._trajectory(fleet_mp_host_speedup=0.0)
        for current in (0.0, 2.0):
            assert check_metrics(trajectory,
                                 {"fleet_mp_host_speedup": current},
                                 {"fleet_mp_host_speedup": 10.0}) == []

    def test_source_scoped_baseline(self):
        # The slower smoke fold must not regress against the faster
        # mp fold of the same metric appended afterwards.
        trajectory = Trajectory("fleet")
        trajectory.append({"fleet_mp_host_speedup": 50.0},
                          source="suite:smoke", sha="s1")
        trajectory.append({"fleet_mp_host_speedup": 194.0},
                          source="suite:mp", sha="s2")
        assert check_metrics(trajectory,
                             {"fleet_mp_host_speedup": 49.0},
                             {"fleet_mp_host_speedup": 10.0},
                             source="suite:smoke") == []
        # unscoped, the mp record is the baseline and 49 regresses
        assert check_metrics(trajectory,
                             {"fleet_mp_host_speedup": 49.0},
                             {"fleet_mp_host_speedup": 10.0})


class TestRendering:
    def test_trend_table_deltas(self):
        trajectory = Trajectory("fleet")
        trajectory.append({"fleet_epoch_wall_ms": 100.0},
                          sha="aaa", timestamp="2026-01-01T00:00:00")
        trajectory.append({"fleet_epoch_wall_ms": 150.0},
                          sha="bbb", timestamp="2026-02-01T00:00:00")
        lines = render_trend_table(trajectory)
        assert "fleet_epoch_wall_ms" in lines[0]
        assert "(+50.0%)" in lines[3]

    def test_trend_table_prefers_headline_gates(self):
        trajectory = Trajectory("obs")
        trajectory.append({
            "very_long_flattened_per_hook_breakdown_p99_ns": 1.0,
            "avc_speedup": 2.0,
        }, sha="aaa")
        header = render_trend_table(trajectory, max_metrics=1)[0]
        assert "avc_speedup" in header

    def test_trend_table_prefers_current_metrics(self):
        # A retired metric stays in the history but yields its column
        # to what the newest record still measures.
        trajectory = Trajectory("fleet")
        trajectory.append({"fleet_old_speedup": 3.0}, sha="aaa")
        trajectory.append({"fleet_epoch_wall_ms": 60.0}, sha="bbb")
        header = render_trend_table(trajectory, max_metrics=1)[0]
        assert "fleet_epoch_wall_ms" in header

    def test_empty_trajectory_placeholder(self):
        assert render_trend_table(Trajectory("x")) == \
            ["*(empty trajectory)*"]

    def test_full_report_sections(self):
        trajectory = Trajectory("fleet")
        trajectory.append({"fleet_epoch_wall_ms": 100.0}, sha="a")
        text = render_report([trajectory])
        assert "# Performance trajectory" in text
        assert "## Trend — `fleet`" in text
        assert "fleet_epoch_wall_ms" in text
