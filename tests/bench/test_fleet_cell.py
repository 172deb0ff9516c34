"""Tests for the fleet benchmark workload's cell: a best-of host epoch
wall plus the deterministic counts of the last fresh fleet."""

from repro.bench.suite import WORKLOAD_AXES, _run_fleet_cell


def _params(**overrides):
    params = {name: axis.default
              for name, axis in WORKLOAD_AXES["fleet"].items()}
    params.update(overrides)
    return params


class TestFleetCell:
    def test_serial_cell_has_no_shadow(self):
        metrics, obs = _run_fleet_cell(_params(vehicles=4, epochs=4))
        assert metrics["fleet_epoch_wall_ms"] > 0
        assert "fleet_mp_host_speedup" not in metrics
        assert "fleet_ipc_crossings" not in metrics
        assert "mp_bit_identical" not in obs
        assert "shadow_fingerprint" not in obs

    def test_rollout_cell_reports_hook_latency(self):
        metrics, obs = _run_fleet_cell(_params(
            vehicles=4, epochs=6, drive_cycle="crash", rollout=True,
            hook_latency=True))
        assert obs["rollout"]["target_version"] == 1
        assert metrics["hook_mean_ns"] > 0
        assert set(obs["hook_latency"]) == {"veh000", "veh001", "veh002",
                                            "veh003"}
