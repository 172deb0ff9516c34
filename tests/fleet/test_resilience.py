"""Crash resilience tests: supervisor, checkpoint/restore, quarantine.

These exercise the full recovery loop against real fleets — a crashed
vehicle's kernel state is rebuilt from its last checkpoint plus a
journal replay of the missed epochs, the restored vehicle must digest
like the wreck (I10) and two runs must stay bit-identical, while
quarantined vehicles never move off their frozen policy version (I9).
"""

import pytest

from repro.faults import points as fp
from repro.faults.plan import FaultRule
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.resilience import (CRASHED, QUARANTINED, RUNNING,
                                    RestartPolicy)
from repro.fleet.rollout import RolloutState
from repro.fleet.vehicle import FleetVehicle
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

KEY = b"sack-fleet-signing-key"


def _fleet(n=4, seed=7, driver=None, **overrides):
    config = FleetConfig(n_vehicles=n, seed=seed, **overrides)
    return Fleet(config, driver=driver or ScriptedDriver())


def _bundle(version=1):
    return make_bundle(version, DEFAULT_SACK_POLICY,
                       signer=BundleSigner(KEY))


class TestForcedCrashRestore:
    def test_crash_is_recovered_from_checkpoint(self):
        fleet = _fleet(checkpoint_interval_epochs=2)
        fleet.force_crash("veh001", epoch=5)
        result = fleet.run(12)
        res = result.report.resilience
        assert res["crashes"] == 1
        assert res["restores"] == 1
        assert res["quarantined"] == 0
        assert fleet.supervisor.status["veh001"].state == RUNNING
        assert fleet.supervisor.status["veh001"].restores == [(5, 6)]
        assert result.ok, result.report.violations

    def test_i10_restored_state_matches_wreck(self):
        # The I10 check runs inside _restore; a divergence lands in the
        # violations list, so a clean report is the invariant proof.
        fleet = _fleet(n=6, checkpoint_interval_epochs=3)
        fleet.force_crash("veh002", epoch=7)
        report = fleet.run(14).report
        assert report.resilience["i10_checked"] == 1
        assert report.resilience["i10_skipped"] == 0
        assert not [v for v in report.violations if "I10" in v]

    def test_dead_vehicle_misses_the_epoch_entirely(self):
        fleet = _fleet(driver=ScriptedDriver().at(5, "veh001", "crash"))
        fleet.force_crash("veh001", epoch=5)
        fleet.run(8)
        # The driver's crash action at epoch 5 was skipped (the vehicle
        # was a wreck), so its SSM never saw crash_detected.
        vehicle = fleet.vehicles["veh001"]
        events = [t[0] for t in vehicle.transition_log]
        assert "crash_detected" not in events

    def test_restore_is_deterministic(self):
        prints = set()
        for _ in range(2):
            fleet = _fleet(n=8, checkpoint_interval_epochs=2)
            fleet.force_crash("veh003", epoch=4)
            result = fleet.run(12)
            assert result.ok, result.report.violations
            prints.add(result.report.fingerprint())
        assert len(prints) == 1


class TestCrashFaultInjection:
    def test_random_crashes_recover_and_stay_deterministic(self):
        prints, summaries = set(), []
        for _ in range(2):
            fleet = _fleet(n=8, checkpoint_interval_epochs=2)
            fleet.fleet_plan.add_rule(FaultRule(
                point=fp.FLEET_VEHICLE_CRASH, probability=0.08))
            result = fleet.run(16)
            assert result.ok, result.report.violations
            prints.add(result.report.fingerprint())
            summaries.append(result.report.resilience)
        assert len(prints) == 1
        assert summaries[0]["crashes"] > 0
        assert summaries[0] == summaries[1]

    def test_shard_stall_skips_one_tick_phase(self):
        fleet = _fleet(n=4, checkpoint_interval_epochs=2)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_SHARD_STALL, probability=1.0, arg="veh002",
            times=1))
        result = fleet.run(6)
        assert result.report.resilience["stalls"] == 1
        stalled = fleet.vehicles["veh002"]
        baseline_fleet = _fleet(n=4)
        baseline_fleet.run(6)
        unstalled = baseline_fleet.vehicles["veh002"]
        assert stalled.tick_count == unstalled.tick_count - \
            fleet.config.epoch_ticks

    def test_stalls_are_deterministic(self):
        prints = set()
        for _ in range(2):
            fleet = _fleet(n=6)
            fleet.fleet_plan.add_rule(FaultRule(
                point=fp.FLEET_SHARD_STALL, probability=0.2))
            prints.add(fleet.run(10).report.fingerprint())
        assert len(prints) == 1


class TestBackoffAndQuarantine:
    def test_backoff_doubles_until_quarantine(self):
        policy = RestartPolicy(max_restarts=3, backoff_base_epochs=1,
                               backoff_cap_epochs=8)
        assert [policy.backoff_epochs(n) for n in (1, 2, 3, 4, 5)] == \
            [1, 2, 4, 8, 8]
        assert not policy.exhausted(3)
        assert policy.exhausted(4)

    def test_repeat_crasher_is_quarantined(self):
        fleet = _fleet(max_restarts=2, checkpoint_interval_epochs=2)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_VEHICLE_CRASH, probability=1.0, arg="veh002"))
        result = fleet.run(20)
        st = fleet.supervisor.status["veh002"]
        assert st.state == QUARANTINED
        assert st.crashes == 3          # 2 restarts used, 3rd crash kills
        assert "max restarts exceeded" in st.quarantine_reason
        assert result.report.resilience["quarantined_ids"] == ["veh002"]
        assert not [v for v in result.report.violations if "I9" in v]

    def test_quarantined_vehicle_excluded_from_rollout(self):
        fleet = _fleet(n=6, max_restarts=1, checkpoint_interval_epochs=2)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_VEHICLE_CRASH, probability=1.0, arg="veh004"))
        fleet.stage_rollout(_bundle())
        result = fleet.run(24)
        assert fleet.supervisor.status["veh004"].state == QUARANTINED
        assert "veh004" not in fleet.controller.fleet_ids
        # The rest of the fleet still converges on v1 (I9: the
        # quarantined vehicle stays on its frozen version).
        assert fleet.controller.state is RolloutState.COMPLETE
        versions = result.report.bundle_versions
        assert versions["veh004"] is None
        assert all(versions[vid] == 1 for vid in fleet.ids
                   if vid != "veh004")
        assert not [v for v in result.report.violations if "I9" in v]

    def test_journal_gap_quarantines_instead_of_guessing(self):
        fleet = _fleet(checkpoint_interval_epochs=50,
                       journal_capacity_epochs=2, max_restarts=5)
        fleet.force_crash("veh001", epoch=8)
        fleet.run(12)
        st = fleet.supervisor.status["veh001"]
        assert st.state == QUARANTINED
        assert "journal gap" in st.quarantine_reason


class TestMidTickCrash:
    def _explode_once(self, monkeypatch, fleet, victim, epoch):
        real_tick = FleetVehicle.tick
        state = {"fired": False}

        def exploding(vehicle, dt_s):
            if not state["fired"] and vehicle.vehicle_id == victim \
                    and fleet.epoch_index == epoch:
                state["fired"] = True
                raise RuntimeError("simulated kernel oops")
            return real_tick(vehicle, dt_s)

        monkeypatch.setattr(FleetVehicle, "tick", exploding)

    def test_tick_exception_recovers_with_checkpoints_armed(
            self, monkeypatch):
        fleet = _fleet(always_checkpoint=True,
                       checkpoint_interval_epochs=2)
        self._explode_once(monkeypatch, fleet, "veh001", epoch=4)
        result = fleet.run(10)
        res = result.report.resilience
        assert res["crashes"] == 1
        assert res["restores"] == 1
        # The wreck is partially mutated, so I10 cannot compare digests.
        assert res["i10_skipped"] == 1
        assert fleet.supervisor.status["veh001"].state == RUNNING
        assert result.ok, result.report.violations

    def test_tick_exception_without_checkpoints_quarantines(
            self, monkeypatch):
        # Nothing was armed, so there is no baseline to restore from:
        # the supervisor contains the blast radius via quarantine and
        # the run survives.
        fleet = _fleet()
        self._explode_once(monkeypatch, fleet, "veh002", epoch=3)
        result = fleet.run(8)
        st = fleet.supervisor.status["veh002"]
        assert st.state == QUARANTINED
        assert st.quarantine_reason == "no checkpoint available"
        assert result.report.resilience["quarantined"] == 1
        assert not [v for v in result.report.violations if "I9" in v]


class TestControlPlaneGuard:
    def test_exhausted_calls_degrade_without_aborting(self):
        fleet = _fleet(n=4, control_retries=1)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_CONTROL_TIMEOUT, probability=1.0))
        fleet.stage_rollout(_bundle())
        result = fleet.run(8)
        control = result.report.resilience["control"]
        assert control["timeouts"] > 0
        assert control["exhausted"] > 0
        # Every rollout step timed out, so nothing was ever offered.
        assert fleet.controller.state is not RolloutState.COMPLETE

    def test_timeout_penalties_are_reported(self):
        # Every attempt of every guarded call blows its deadline: each
        # call pays deadline + backoff per attempt, all fingerprinted.
        fleet = _fleet(n=4)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_CONTROL_TIMEOUT, probability=1.0))
        report = fleet.run(6).report
        control = report.resilience["control"]
        guard = fleet.supervisor.guard
        per_call = sum(guard.deadline_ns + guard.backoff_base_ns
                       * (1 << attempt)
                       for attempt in range(guard.retries + 1))
        assert control["penalty_ns"] == control["exhausted"] * per_call
        assert control["penalty_ns"] > 0
        assert _fleet(n=4).run(6).report.resilience == {}

    def test_intermittent_timeouts_retry_through(self):
        fleet = _fleet(n=4, control_retries=2)
        fleet.fleet_plan.add_rule(FaultRule(
            point=fp.FLEET_CONTROL_TIMEOUT, interval=2))
        fleet.stage_rollout(_bundle())
        fleet.run(20)
        control = fleet.supervisor.guard.summary()
        assert control["retries"] > 0
        assert fleet.controller.state is RolloutState.COMPLETE


class TestFingerprintCompatibility:
    def test_no_faults_means_legacy_fingerprint(self):
        # The supervisor stays dormant without crash rules: no journal,
        # no checkpoints, no RNG draws, empty resilience payload.
        plain = _fleet().run(8).report
        tuned = _fleet(checkpoint_interval_epochs=2, max_restarts=1,
                       restart_backoff_epochs=4).run(8).report
        assert plain.resilience == {}
        assert plain.fingerprint() == tuned.fingerprint()

    def test_always_checkpoint_does_not_change_the_fingerprint(self):
        plain = _fleet().run(8).report
        ckpt = _fleet(always_checkpoint=True).run(8).report
        assert plain.fingerprint() == ckpt.fingerprint()

    def test_resilience_summary_changes_the_fingerprint(self):
        plain = _fleet().run(8).report
        crashed = _fleet(checkpoint_interval_epochs=2)
        crashed.force_crash("veh001", epoch=3)
        report = crashed.run(8).report
        assert report.resilience
        assert report.fingerprint() != plain.fingerprint()


class TestConfigValidation:
    @pytest.mark.parametrize("field,value,expected", [
        ("backend", "mpi",
         "unknown backend 'mpi'; accepted backends: serial"),
        ("backend", "process",
         "unknown backend 'process'; accepted backends: serial"),
        ("mode", "selinux",
         "unknown mode 'selinux'; accepted modes: "
         "apparmor, independent"),
    ])
    def test_bad_choice_lists_accepted_values(self, field, value,
                                              expected):
        with pytest.raises(ValueError) as err:
            FleetConfig(**{field: value})
        assert str(err.value) == expected

    @pytest.mark.parametrize("field,value", [
        ("checkpoint_interval_epochs", 0),
        ("journal_capacity_epochs", 0),
        ("max_restarts", -1),
    ])
    def test_resilience_knob_ranges(self, field, value):
        with pytest.raises(ValueError):
            FleetConfig(**{field: value})


@pytest.mark.slow
class TestCrashSoak:
    def test_hundred_vehicle_crash_soak(self):
        def soak():
            fleet = _fleet(n=100, seed=42, checkpoint_interval_epochs=2)
            fleet.fleet_plan.add_rule(FaultRule(
                point=fp.FLEET_VEHICLE_CRASH, probability=0.02))
            result = fleet.run(12)
            return fleet, result

        first, ra = soak()
        second, rb = soak()
        assert ra.report.fingerprint() == rb.report.fingerprint()
        assert ra.ok, ra.report.violations
        res = ra.report.resilience
        assert res["crashes"] > 0
        # Every crashed vehicle was recovered, is scheduled for a
        # restore, or was quarantined — never silently lost.
        for vid, st in first.supervisor.status.items():
            if st.crashes == 0:
                continue
            assert (st.restores or st.state == QUARANTINED
                    or (st.state == CRASHED
                        and st.restore_due_epoch is not None)), \
                (vid, st.state)
