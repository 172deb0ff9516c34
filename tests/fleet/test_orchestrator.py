"""End-to-end fleet tests: determinism, V2X propagation, OTA lifecycle.

These drive real :class:`~repro.fleet.orchestrator.Fleet` instances —
every vehicle boots a full IVI world (kernel, SACKfs, SDS, LSM stack) —
so they double as the integration proof that the barrier scheduler keeps
N kernels independent and reproducible.
"""

import json

import pytest

from repro.faults import points as fp
from repro.faults.plan import FaultRule
from repro.fleet.bundle import (BundleSigner, SIGNED_FIELDS_POLICY_ONLY,
                                make_bundle)
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.rollout import RolloutPlan, RolloutState, Wave
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

KEY = b"sack-fleet-signing-key"


def _bundle(version, fields=None, key=KEY):
    kwargs = {"signer": BundleSigner(key)}
    if fields is not None:
        kwargs["fields"] = fields
    return make_bundle(version, DEFAULT_SACK_POLICY, **kwargs)


def _fleet(n=6, seed=7, driver=None, **overrides):
    config = FleetConfig(n_vehicles=n, seed=seed, **overrides)
    return Fleet(config, driver=driver or ScriptedDriver())


class TestDeterminism:
    def test_double_run_fingerprints_identically(self):
        prints = set()
        for _ in range(2):
            fleet = _fleet(driver=ScriptedDriver()
                           .at(2, "veh001", "crash")
                           .at(8, "veh001", "clear"))
            fleet.stage_rollout(_bundle(1))
            result = fleet.run(epochs=16)
            assert result.ok, result.report.violations
            prints.add(result.fingerprint)
        assert len(prints) == 1

    def test_fingerprint_depends_on_seed(self):
        prints = {
            _fleet(seed=seed).run(epochs=6).fingerprint
            for seed in (1, 2)}
        assert len(prints) == 2

    def test_canary_rollback_fingerprint_is_deterministic(self):
        def run():
            fleet = _fleet()
            fleet.stage_rollout(_bundle(1))
            fleet.run(epochs=14)
            fleet.arm_vehicle_fault(fleet.ids[0],
                                    fp.FLEET_BUNDLE_APPLY_FAIL,
                                    probability=1.0, times=1)
            fleet.stage_rollout(_bundle(2))
            result = fleet.run(epochs=10)
            assert fleet.controller.state is RolloutState.ROLLED_BACK
            return result.fingerprint
        assert run() == run()

    def test_report_round_trips_json(self):
        report = _fleet(n=3).run(epochs=4).report
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["vehicles"] == 3
        assert doc["fingerprint"] == report.fingerprint()
        assert report.summary_lines()


class TestV2xPropagation:
    def test_crash_propagates_to_platoon_and_clears(self):
        driver = ScriptedDriver().at(3, "veh001", "crash") \
                                 .at(10, "veh001", "clear")
        fleet = _fleet(n=4, driver=driver)
        fleet.run(epochs=24)
        report = fleet.report()
        # Followers entered emergency *through the SDS pipeline*: the
        # bus copy became a v2x_alert sample, the detector emitted
        # crash_detected, SACKfs accepted it, the SSM transitioned.
        for vid in ("veh000", "veh002"):
            events = [t[0] for t in report.transitions[vid]]
            assert "crash_detected" in events, (vid, events)
            assert "emergency_cleared" in events, (vid, events)
            assert report.final_situations[vid] != "emergency"
        assert report.bus_stats["published"] >= 2     # crash + cleared
        assert report.bus_stats["copies_delivered"] >= 2

    def test_alert_brakes_the_follower(self):
        driver = ScriptedDriver().at(3, "veh001", "crash")
        fleet = _fleet(n=3, driver=driver)
        fleet.run(epochs=8)
        actions = [line for line in fleet.report().bus_tail
                   if "emergency_brake" in line]
        assert actions, "hard braking never published as a follow-on event"

    def test_out_of_range_vehicle_unaffected(self):
        driver = ScriptedDriver().at(2, "veh000", "crash")
        fleet = _fleet(n=3, driver=driver, spacing_km=5.0,
                       start_moving=False)
        fleet.run(epochs=10)
        report = fleet.report()
        assert all("crash_detected" not in [t[0] for t in
                                            report.transitions[vid]]
                   for vid in ("veh001", "veh002"))
        assert report.bus_stats["copies_filtered_range"] >= 1


class TestRolloutLifecycle:
    def test_staged_rollout_reaches_whole_fleet(self):
        fleet = _fleet(n=6)
        fleet.stage_rollout(_bundle(1))
        result = fleet.run(epochs=14)
        assert fleet.controller.state is RolloutState.COMPLETE
        versions = result.report.bundle_versions
        assert set(versions.values()) == {1}
        assert result.ok, result.report.violations
        # The rollout went wave by wave, not all at once.
        history = " ".join(result.report.rollout["history"])
        assert "wave 'canary' complete" in history
        assert "wave 'early' complete" in history

    def test_canary_failure_rolls_the_fleet_back(self):
        fleet = _fleet(n=6)
        fleet.stage_rollout(_bundle(1))
        fleet.run(epochs=14)
        assert fleet.controller.state is RolloutState.COMPLETE
        # v2 is bad for the canary: its apply fails once, the canary
        # wave's zero error budget blows, the fleet walks back to v1.
        fleet.arm_vehicle_fault(fleet.ids[0],
                                fp.FLEET_BUNDLE_APPLY_FAIL,
                                probability=1.0, times=1)
        fleet.stage_rollout(_bundle(2))
        result = fleet.run(epochs=10)
        assert fleet.controller.state is RolloutState.ROLLED_BACK
        assert set(result.report.bundle_versions.values()) == {1}
        canary_log = result.report.apply_logs[fleet.ids[0]]
        assert (2, "apply_failed") in canary_log
        assert canary_log[-1] == (1, "applied")        # the revert
        assert result.ok, result.report.violations

    def test_health_gate_rolls_back_watchdog_storm(self):
        # v2 carries an absurd 1ms staleness deadline.  The static
        # proof gate cannot object — the policy compiles and every
        # safety property holds (P3 only demands a *positive* bound) —
        # so the canary applies it fine; then its watchdog engages
        # between SDS event writes and the health gate walks the fleet
        # back to v1.  Deployment-time absurdity is exactly what the
        # runtime gate exists to catch.
        strangled = DEFAULT_SACK_POLICY.replace(
            "failsafe emergency after 2000ms;",
            "failsafe emergency after 1ms;", 1)
        assert strangled != DEFAULT_SACK_POLICY
        fleet = _fleet(n=6)
        fleet.stage_rollout(_bundle(1))
        fleet.run(epochs=14)
        assert fleet.controller.state is RolloutState.COMPLETE
        bad = make_bundle(2, strangled, signer=BundleSigner(KEY))
        fleet.stage_rollout(bad)
        result = fleet.run(epochs=12)
        assert fleet.controller.state is RolloutState.ROLLED_BACK
        assert set(result.report.bundle_versions.values()) == {1}
        history = " ".join(result.report.rollout["history"])
        assert "watchdog engaged" in history or "failsafe" in history

    def test_tampered_bundle_refused_by_every_vehicle(self):
        plan = RolloutPlan(waves=(Wave("all", 1.0, error_budget=0),))
        fleet = _fleet(n=5, rollout_plan=plan)
        evil = _bundle(1, fields=SIGNED_FIELDS_POLICY_ONLY)
        fleet.stage_rollout(evil)
        result = fleet.run(epochs=6)
        report = result.report
        # Every vehicle was offered the bundle, and every one refused
        # it at the verification step — it never touched a kernel.
        for vid in fleet.ids:
            assert report.apply_logs[vid][0] == (1, "refused"), vid
            assert report.health[vid]["rejected_bundles"] >= 1
        assert set(report.bundle_versions.values()) == {None}
        assert fleet.controller.state is RolloutState.ROLLED_BACK
        history = " ".join(report.rollout["history"])
        assert "verification failed" in history

    def test_wrong_key_bundle_refused(self):
        fleet = _fleet(n=3)
        fleet.stage_rollout(_bundle(1, key=b"attacker-key"))
        fleet.run(epochs=4)
        assert all(v is None
                   for v in fleet.report().bundle_versions.values())


class TestReconnectI8:
    def test_offline_vehicle_converges_after_reconnect(self):
        fleet = _fleet(n=8)
        # veh005 is in the 'full' wave; it vanishes before the rollout
        # reaches it and reappears later.
        fleet.force_offline("veh005", epochs=10)
        fleet.stage_rollout(_bundle(1))
        result = fleet.run(epochs=22)
        report = result.report
        assert fleet.controller.state is RolloutState.COMPLETE
        assert report.bundle_versions["veh005"] == 1
        assert report.offline_epochs["veh005"] == 10
        assert result.ok, report.violations

    def test_vehicle_offline_mid_apply_is_reoffered(self):
        fleet = _fleet(n=4)
        fleet.stage_rollout(_bundle(1))
        fleet.run(epochs=2)               # canary offered/applied
        fleet.force_offline("veh002", epochs=4)
        result = fleet.run(epochs=18)
        assert fleet.controller.state is RolloutState.COMPLETE
        assert result.report.bundle_versions["veh002"] == 1
        assert result.ok, result.report.violations

    def test_straggler_resyncs_under_v2x_and_bridge_faults(self):
        # The worst-case straggler: offline through the rollout, then
        # reconnecting into a lossy V2X fabric while its AppArmor
        # bridge's first profile reloads fail.  I8 must still converge
        # it onto the committed bundle.
        fleet = _fleet(n=6, seed=11, mode="apparmor",
                       vehicle_fault_intensity=0.01)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.V2X_DELIVERY_DROP, probability=0.3))
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.V2X_DELAY, probability=0.3))
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_ACK_DROP, probability=0.2))
        # vehicle_fault_intensity threads this plan into the bridge at
        # boot, so rules armed now reach the reload path.
        fleet.arm_vehicle_fault("veh004", fp.BRIDGE_RELOAD_FAIL,
                                probability=1.0, times=2)
        fleet.force_offline("veh004", epochs=8)
        fleet.stage_rollout(_bundle(1))
        result = fleet.run(epochs=30)
        assert fleet.controller.state is RolloutState.COMPLETE
        assert result.report.bundle_versions["veh004"] == 1
        i8 = [v for v in result.report.violations if "I8" in v]
        assert not i8, i8


def _soak():
    """The acceptance scenario: 100 vehicles, a mid-platoon crash, a
    completed 3-wave rollout, then a canary failure that walks the
    fleet back — all on one seed."""
    driver = ScriptedDriver().at(2, "veh050", "crash") \
                             .at(9, "veh050", "clear")
    fleet = _fleet(n=100, seed=42, driver=driver)
    fleet.stage_rollout(_bundle(1))
    fleet.run(epochs=14)
    fleet.arm_vehicle_fault(fleet.ids[0], fp.FLEET_BUNDLE_APPLY_FAIL,
                            probability=1.0, times=1)
    fleet.stage_rollout(_bundle(2))
    fleet.run(epochs=10)
    return fleet


@pytest.mark.slow
class TestHundredVehicleSoak:
    def test_soak_is_bit_identical_and_converges(self):
        first, second = _soak(), _soak()
        ra, rb = first.report(), second.report()
        assert ra.fingerprint() == rb.fingerprint()
        assert ra.ok, ra.violations
        # Rollout: completed v1, then rolled back off v2.
        assert first.controller.state is RolloutState.ROLLED_BACK
        assert set(ra.bundle_versions.values()) == {1}
        history = " ".join(ra.rollout["history"])
        assert "rollout complete: committed v1" in history
        assert "ROLLBACK" in history
        # V2X: the crash at veh050 reached its platoon neighbours.
        for vid in ("veh049", "veh051"):
            events = [t[0] for t in ra.transitions[vid]]
            assert "crash_detected" in events, (vid, events)
