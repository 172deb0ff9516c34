"""Tests for the fleet benchmark workload's process-backend cell: the
serial shadow fleet must see the exact same workload (rollout staging
included), so ``mp_bit_identical`` is a real conformance bit and the
host-timed ``fleet_mp_host_speedup`` compares like against like."""

from repro.bench.suite import WORKLOAD_AXES, _run_fleet_cell
from repro.bench.trajectory import direction_of


def _params(**overrides):
    params = {name: axis.default
              for name, axis in WORKLOAD_AXES["fleet"].items()}
    params.update(overrides)
    return params


class TestProcessCell:
    def test_plain_cell_is_bit_identical(self):
        metrics, obs = _run_fleet_cell(_params(
            vehicles=4, workers=2, backend="process", epochs=4))
        assert obs["mp_bit_identical"]
        assert obs["fingerprint"] == obs["shadow_fingerprint"]
        assert metrics["fleet_mp_host_speedup"] > 0
        assert metrics["fleet_epoch_wall_ms"] > 0
        # Seeded traffic over 4 epochs: no crash, so no V2X copy, no
        # rollout command and no telemetry frame crosses a pipe.
        assert metrics["fleet_ipc_crossings"] == 0.0

    def test_rollout_is_staged_on_the_shadow_fleet_too(self):
        # Regression: the rollout used to be staged only on the primary
        # fleet, so every rollout cell trivially failed bit-identity.
        metrics, obs = _run_fleet_cell(_params(
            vehicles=4, workers=2, backend="process", epochs=6,
            drive_cycle="crash", rollout=True))
        assert obs["mp_bit_identical"], \
            (obs["fingerprint"], obs["shadow_fingerprint"])
        assert obs["rollout"], "the primary fleet never saw the rollout"
        assert metrics["fleet_mp_host_speedup"] > 0
        # Rollout commands (and the crash's V2X copies) cross pipes.
        assert metrics["fleet_ipc_crossings"] > 0

    def test_serial_cell_has_no_shadow(self):
        metrics, obs = _run_fleet_cell(_params(vehicles=4, epochs=4))
        assert metrics["fleet_epoch_wall_ms"] > 0
        assert "fleet_mp_host_speedup" not in metrics
        assert "fleet_ipc_crossings" not in metrics
        assert "mp_bit_identical" not in obs
        assert "shadow_fingerprint" not in obs

    def test_hook_latency_knob_is_in_process_only(self):
        # Worker-resident kernels are out of the coordinator's reach;
        # the knob must drop out silently rather than crash the cell.
        metrics, obs = _run_fleet_cell(_params(
            vehicles=4, workers=2, backend="process", epochs=4,
            hook_latency=True))
        assert "hook_mean_ns" not in metrics
        assert "hook_latency" not in obs
        assert obs["mp_bit_identical"]


class TestGateWiring:
    def test_speedup_direction_is_higher(self):
        assert direction_of("fleet_mp_host_speedup") == "higher"
        assert direction_of("fleet_ipc_crossings") == "lower"
        assert direction_of("fleet_epoch_wall_ms") == "lower"

    def test_backend_axis_covers_all_hosts(self):
        axis = WORKLOAD_AXES["fleet"]["backend"]
        assert axis.choices == ("serial", "process")
        assert axis.default == "serial"
