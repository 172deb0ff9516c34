"""Tests for the telemetry-overhead benchmark workload and its gate
wiring."""

from repro.bench.suite import (SMOKE, _METRIC_SET_ALIASES,
                               _run_telemetry_cell)
from repro.bench.trajectory import direction_of


def _params(**overrides):
    """The smoke suite's telemetry cell, with *overrides*."""
    [cell] = [cell for cell in SMOKE if cell.workload == "telemetry"]
    return {**cell.params, **overrides}


class TestTelemetryCell:
    def test_overhead_is_deterministic(self):
        # The host overhead share moves run to run; the pipeline's
        # output does not.
        keys = ("telemetry_frames", "telemetry_series_tracked",
                "telemetry_slo_alerts")
        a, obs_a = _run_telemetry_cell(_params(vehicles=8, epochs=6))
        b, obs_b = _run_telemetry_cell(_params(vehicles=8, epochs=6))
        assert {k: a[k] for k in keys} == {k: b[k] for k in keys}
        assert obs_a["rollup_digest"] == obs_b["rollup_digest"]
        assert a["telemetry_host_overhead_pct"] > 0

    def test_cell_reports_pipeline_shape(self):
        metrics, obs = _run_telemetry_cell(_params(vehicles=4, epochs=6))
        assert metrics["telemetry_frames"] == 24.0
        assert metrics["telemetry_series_tracked"] > 0
        assert metrics["telemetry_slo_alerts"] == 0.0
        assert len(obs["rollup_digest"]) == 64
        assert obs["overhead"]["cpu_ns_total"] > 0


class TestGateWiring:
    def test_overhead_direction_is_lower(self):
        assert direction_of("telemetry_host_overhead_pct") == "lower"

    def test_accuracy_pct_still_higher(self):
        # "_pct" alone must not flip explicitly-higher markers.
        assert direction_of("accuracy_pct") == "higher"

    def test_telemetry_rides_the_obs_metric_set(self):
        assert _METRIC_SET_ALIASES["telemetry"] == "obs"

    def test_workers_axis_is_gone(self):
        # Every fleet runs on the one in-process host: no cell has a
        # worker count or a backend.
        for cell in SMOKE:
            assert "workers" not in cell.params
            assert "backend" not in cell.params
