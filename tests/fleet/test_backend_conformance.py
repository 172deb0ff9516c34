"""Cross-backend differential conformance: serial vs process.

The multiprocessing backend is only admissible if it is *bit-identical*
to the serial scheduler on every observable the fleet exports.  These
tests run the same seeded workloads across every backend x worker-count
combination and require equality of:

* the fleet fingerprint (transitions, counters, publish order, RNG
  draws — the whole determinism contract);
* per-vehicle denial reports (health snapshots);
* the aggregated audit/metric counters;
* the telemetry rollup digest, when the streaming pipeline is on;
* the final situation map and bundle versions.

A divergence in any of them means a worker observed state it should not
share, or the coordinator consumed results in a worker-dependent order.
"""

import pytest

from repro.faults import points as fp
from repro.faults.plan import FaultRule
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

#: The full differential matrix.  Serial ignores workers for scheduling
#: (they only shape the cost model, which fingerprints exclude), so one
#: cell covers it; process sweeps 1/2/4 workers.
MATRIX = [("serial", 1), ("serial", 4),
          ("process", 1), ("process", 2), ("process", 4)]

KEY = b"conformance-key"


def _observables(fleet, report):
    """Everything a backend must reproduce exactly."""
    return {
        "fingerprint": report.fingerprint(),
        "denials": {vid: health["denials"]
                    for vid, health in sorted(report.health.items())},
        "counters": dict(report.counters),
        "final_situations": dict(report.final_situations),
        "bundle_versions": dict(report.bundle_versions),
        "transitions": {vid: list(ts)
                        for vid, ts in sorted(report.transitions.items())},
        "rollup_digest": report.telemetry.get("rollup_digest")
        if report.telemetry else None,
    }


def _drive_cycle(backend, workers):
    """Workload A: a crash that propagates over V2X and clears."""
    driver = ScriptedDriver().at(2, "veh001", "crash") \
                             .at(8, "veh001", "clear")
    fleet = Fleet(FleetConfig(n_vehicles=4, seed=7, workers=workers,
                              backend=backend, epoch_ticks=5),
                  driver=driver)
    with fleet:
        report = fleet.run(12).report
        return _observables(fleet, report)


def _rich_workload(backend, workers):
    """Workload B: telemetry + checkpoints + faults + staged rollout.

    Exercises every barrier phase at once — shared-RNG fault plans,
    forced crash/restore, offline windows, ack drops, an OTA wave — so
    a protocol-ordering bug in any phase shows up as a fingerprint or
    rollup divergence.
    """
    config = FleetConfig(n_vehicles=6, seed=11, workers=workers,
                         backend=backend, telemetry=True,
                         checkpoint_interval_epochs=2,
                         vehicle_fault_intensity=0.05)
    fleet = Fleet(config, driver=ScriptedDriver()
                  .at(3, "veh001", "crash").at(9, "veh001", "clear"))
    with fleet:
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_VEHICLE_OFFLINE, probability=0.1))
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_ACK_DROP, probability=0.2))
        fleet.stage_rollout(make_bundle(
            1, DEFAULT_SACK_POLICY, signer=BundleSigner(config.fleet_key)))
        fleet.force_crash("veh002", epoch=4)
        fleet.force_offline("veh004", epochs=3)
        report = fleet.run(16).report
        obs = _observables(fleet, report)
        obs["resilience"] = dict(report.resilience)
        return obs


class TestDriveCycleConformance:
    """Workload A across the full backend x worker matrix."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _drive_cycle("serial", 1)

    @pytest.mark.parametrize("backend,workers", MATRIX[1:],
                             ids=[f"{b}-w{w}" for b, w in MATRIX[1:]])
    def test_matches_serial_baseline(self, baseline, backend, workers):
        observed = _drive_cycle(backend, workers)
        for key in baseline:
            assert observed[key] == baseline[key], \
                f"{backend}/w{workers} diverged on {key}"


class TestRichWorkloadConformance:
    """Workload B (telemetry/faults/rollout) on the interesting corners."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _rich_workload("serial", 1)

    @pytest.mark.parametrize(
        "backend,workers",
        [("process", 2), ("process", 4)],
        ids=["process-w2", "process-w4"])
    def test_matches_serial_baseline(self, baseline, backend, workers):
        observed = _rich_workload(backend, workers)
        for key in baseline:
            assert observed[key] == baseline[key], \
                f"{backend}/w{workers} diverged on {key}"

    def test_rich_workload_actually_exercises_the_machinery(self, baseline):
        # Guard against the differential suite passing vacuously: the
        # workload must really crash/restore, transition, and roll out.
        assert baseline["resilience"]["restores"] >= 1
        assert any(baseline["transitions"].values())
        assert baseline["rollup_digest"]
        assert any(v is not None
                   for v in baseline["bundle_versions"].values())
