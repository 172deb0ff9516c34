"""Resilience tests: SDS retry/outbox/health, watchdog failsafe, and the
SSM's transactional listener notification under injected faults."""

import pytest

from repro.faults import points as fp
from repro.faults.plan import FaultPlan
from repro.kernel import KernelError, user_credentials
from repro.kernel.clock import NSEC_PER_MSEC
from repro.lsm import boot_kernel
from repro.obs import AUDIT_FAILSAFE, AUDIT_ROLLBACK
from repro.sack import SackFs, SackLsm
from repro.sack.ssm import FORCE_EVENT
from repro.sds import SituationDetectionService
from repro.sds.service import (OUTBOX_CAPACITY, RETRY_BACKOFF_INITIAL_MS,
                               SdsStats)
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.dynamics import VehicleDynamics
from repro.vehicle.ivi import (DEFAULT_SACK_POLICY, EnforcementConfig,
                               build_ivi_world)

SDS_UID = 990


def make_world(plan=None):
    sack = SackLsm()
    kernel, _ = boot_kernel([sack])
    sackfs = SackFs(kernel, sack, authorized_event_uids={SDS_UID},
                    ioctl_symbols=IOCTL_SYMBOLS, fault_plan=plan)
    kernel.write_file(kernel.procs.init,
                      "/sys/kernel/security/SACK/policy",
                      DEFAULT_SACK_POLICY.encode(), create=False)
    task = kernel.sys_fork(kernel.procs.init)
    task.comm = "sds"
    task.cred = user_credentials(SDS_UID)
    dynamics = VehicleDynamics(driver_present=True)
    sds = SituationDetectionService(kernel, task, dynamics, fault_plan=plan)
    return kernel, sack, sackfs, sds


class TestSdsOutbox:
    def test_failed_send_queued_and_retried(self):
        plan = FaultPlan()
        plan.arm(fp.SACKFS_WRITE_EIO, nth_calls=frozenset({1}))
        kernel, sack, sackfs, sds = make_world(plan)
        assert not sds.send_event("crash_detected")
        assert sds.stats.events_failed == 1
        assert len(sds.outbox) == 1
        # Before the backoff deadline nothing is retried.
        assert sds.flush_outbox() == 0
        kernel.clock.advance_ms(RETRY_BACKOFF_INITIAL_MS + 1)
        assert sds.flush_outbox() == 1
        assert not sds.outbox
        assert sds.stats.retries == 1
        assert sds.stats.events_sent == 1
        assert sack.current_state == "emergency"

    def test_backoff_doubles_then_resets(self):
        plan = FaultPlan()
        plan.arm(fp.SACKFS_WRITE_EIO, nth_calls=frozenset({1, 2}))
        kernel, _, _, sds = make_world(plan)
        sds.send_event("crash_detected")
        assert sds.retry_backoff_ms == RETRY_BACKOFF_INITIAL_MS
        kernel.clock.advance_ms(RETRY_BACKOFF_INITIAL_MS + 1)
        assert sds.flush_outbox() == 0          # retry hits injected EIO too
        assert sds.retry_backoff_ms == RETRY_BACKOFF_INITIAL_MS * 2
        kernel.clock.advance_ms(sds.retry_backoff_ms + 1)
        assert sds.flush_outbox() == 1
        assert sds.retry_backoff_ms == RETRY_BACKOFF_INITIAL_MS

    def test_outbox_coalesces_repeated_events(self):
        plan = FaultPlan()
        plan.arm(fp.SACKFS_WRITE_EIO, interval=1)
        _, _, _, sds = make_world(plan)
        for _ in range(5):
            sds.send_event("crash_detected")
        assert len(sds.outbox) == 1
        assert sds.stats.events_failed == 5

    def test_outbox_bounded_drops_oldest(self):
        plan = FaultPlan()
        plan.arm(fp.SACKFS_WRITE_EIO, interval=1)
        _, _, _, sds = make_world(plan)
        for i in range(OUTBOX_CAPACITY + 3):
            sds.send_event(f"event_{i}")
        assert len(sds.outbox) == OUTBOX_CAPACITY
        assert sds.stats.outbox_dropped == 3
        assert "event_0" not in sds.outbox

    def test_latency_stats_bounded_but_streaming(self):
        stats = SdsStats(latency_window=4)
        for i in range(10):
            stats.record_latency((i + 1) * 1000)
        assert len(stats.send_latencies_ns) == 4
        assert stats.mean_latency_us == pytest.approx(5.5)
        assert stats.max_latency_us == pytest.approx(10.0)


class TestSensorHealth:
    def test_dropout_falls_back_to_last_good(self):
        plan = FaultPlan()
        # Fail the speed sensor only during the second poll (t=20ms).
        plan.arm(fp.SDS_SENSOR_DROPOUT, interval=1, arg="speed_kmh",
                 times=1, start_ns=15 * NSEC_PER_MSEC)
        _, _, _, sds = make_world(plan)
        sds.dynamics.speed_kmh = 42.0
        sds.run(1, step_dynamics=False)
        assert sds.last_samples["speed_kmh"] == 42.0
        sds.dynamics.speed_kmh = 55.0
        sds.run(1, step_dynamics=False)
        # The dropped-out sensor contributed its last-known-good value.
        assert sds.last_samples["speed_kmh"] == 42.0
        health = sds.health["speed_kmh"]
        assert not health.ok
        assert health.total_failures == 1
        sds.run(1, step_dynamics=False)
        assert sds.health["speed_kmh"].ok
        assert sds.last_samples["speed_kmh"] == 55.0

    def test_stuck_sensor_repeats_value(self):
        plan = FaultPlan()
        plan.arm(fp.SDS_SENSOR_STUCK, interval=1, arg="speed_kmh",
                 times=1, start_ns=15 * NSEC_PER_MSEC)
        _, _, _, sds = make_world(plan)
        sds.dynamics.speed_kmh = 10.0
        sds.run(1, step_dynamics=False)
        sds.dynamics.speed_kmh = 90.0
        sds.run(1, step_dynamics=False)
        assert sds.last_samples["speed_kmh"] == 10.0
        assert sds.stats.sensor_faults == 1

    def test_spike_perturbs_numeric_sensor(self):
        plan = FaultPlan(seed=3)
        plan.arm(fp.SDS_SENSOR_SPIKE, interval=1, arg="speed_kmh", times=1)
        _, _, _, sds = make_world(plan)
        sds.dynamics.speed_kmh = 50.0
        sds.run(1, step_dynamics=False)
        assert sds.last_samples["speed_kmh"] != 50.0
        assert sds.stats.sensor_faults == 1


class TestHeartbeatAndWatchdog:
    def test_heartbeats_not_counted_as_events(self):
        kernel, sack, sackfs, sds = make_world()
        sds.run(5)
        assert sds.stats.heartbeats_sent >= 1
        assert sackfs.heartbeats_received == sds.stats.heartbeats_sent
        assert sackfs.events_accepted == 0
        assert sack.ssm.events_processed == 0

    def test_watchdog_created_from_policy_deadline(self):
        _, _, sackfs, _ = make_world()
        assert sackfs.watchdog is not None
        assert sackfs.watchdog.deadline_ns == 2000 * NSEC_PER_MSEC

    def test_live_sds_keeps_watchdog_fed(self):
        kernel, sack, sackfs, sds = make_world()
        sds.run(600)          # 6s of quiet 10ms polls; heartbeats at 1Hz
        assert not sack.ssm.failsafe_engaged
        assert sackfs.watchdog.engagements == 0

    def test_dead_sds_triggers_failsafe_within_deadline(self):
        kernel, sack, sackfs, sds = make_world()
        sds.dynamics.start_engine()
        sds.dynamics.accelerate(5.0)
        sds.run(200)
        assert sack.current_state == "driving"
        last_seen = sackfs.watchdog.last_seen_ns
        # SDS dies: time passes with no events and no heartbeats.
        kernel.clock.advance_ms(2500)
        assert sack.current_state == "emergency"
        assert sack.ssm.failsafe_engaged
        # The engagement is audited at the deadline, and counted.
        failsafes = kernel.obs.audit.by_kind(AUDIT_FAILSAFE)
        assert len(failsafes) == 1
        assert "stale for 2000ms (deadline 2000ms)" in failsafes[0].detail
        assert failsafes[0].when_ns == last_seen + 2000 * NSEC_PER_MSEC + 1
        counter = kernel.obs.metrics.counter(
            "sack_failsafe_engagements_total")
        assert counter.value == 1

    def test_deadline_boundary_is_strict(self):
        kernel, sack, sackfs, _ = make_world()
        assert sackfs.watchdog.last_seen_ns == 0
        kernel.clock.advance_ns(2000 * NSEC_PER_MSEC)
        assert not sack.ssm.failsafe_engaged
        kernel.clock.advance_ns(1)
        assert sack.ssm.failsafe_engaged
        assert sackfs.watchdog.engagements == 1

    def test_fed_once_then_silent_still_engages(self):
        # The boot-time timer finds the watchdog fed and must re-arm
        # from the feed; dropping the re-arm leaves it silent forever.
        kernel, sack, sackfs, sds = make_world()
        kernel.clock.advance_ms(1000)
        assert sds.send_heartbeat()
        kernel.clock.advance_ms(2000)
        assert not sack.ssm.failsafe_engaged
        kernel.clock.advance_ns(1)
        assert sack.ssm.failsafe_engaged

    def test_watchdog_silent_while_engaged(self):
        kernel, sack, sackfs, sds = make_world()
        kernel.clock.advance_ms(2500)
        assert sackfs.watchdog.engagements == 1
        kernel.clock.advance_ms(10_000)
        assert sackfs.watchdog.engagements == 1    # already degraded
        assert len(kernel.obs.audit.by_kind(AUDIT_FAILSAFE)) == 1

    def test_recovery_after_failsafe(self):
        kernel, sack, sackfs, sds = make_world()
        kernel.clock.advance_ms(2500)
        assert sack.current_state == "emergency"
        # SDS comes back; the next real event recovers the machine.
        kernel.clock.advance_ms(3000)
        assert sds.send_event("emergency_cleared")
        assert sack.current_state == "parking_with_driver"
        assert not sack.ssm.failsafe_engaged
        # ... the fresh stream holds the deadline off, and a second
        # silence engages it again exactly a deadline after the event.
        kernel.clock.advance_ms(2000)
        assert not sack.ssm.failsafe_engaged
        kernel.clock.advance_ns(1)
        assert sack.ssm.failsafe_engaged
        assert sackfs.watchdog.engagements == 2

    def test_detached_sds_world_reaches_failsafe_by_clock_alone(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        world.run_sds(5)
        world.sds = None
        world.kernel.clock.advance_ms(2500)
        assert world.situation == "emergency"
        assert world.sackfs.watchdog.engagements == 1

    def test_watchdog_file_readable(self):
        kernel, _, _, _ = make_world()
        text = kernel.read_file(kernel.procs.init,
                                "/sys/kernel/security/SACK/watchdog"
                                ).decode()
        assert "deadline_ms 2000" in text
        assert "engaged 0" in text

    def test_no_deadline_no_watchdog(self):
        kernel, _, sackfs, _ = make_world()
        policy = DEFAULT_SACK_POLICY.replace(
            "failsafe emergency after 2000ms;", "failsafe emergency;")
        assert policy != DEFAULT_SACK_POLICY
        kernel.write_file(kernel.procs.init,
                          "/sys/kernel/security/SACK/policy",
                          policy.encode(), create=False)
        assert sackfs.watchdog is None
        text = kernel.read_file(kernel.procs.init,
                                "/sys/kernel/security/SACK/watchdog"
                                ).decode()
        assert text == "disabled\n"

    def test_deadline_free_reload_disarms_replaced_watchdog(self):
        kernel, sack, sackfs, _ = make_world()
        old_ssm, old_watchdog = sack.ssm, sackfs.watchdog
        policy = DEFAULT_SACK_POLICY.replace(
            "failsafe emergency after 2000ms;", "failsafe emergency;")
        kernel.write_file(kernel.procs.init,
                          "/sys/kernel/security/SACK/policy",
                          policy.encode(), create=False)
        kernel.clock.advance_ms(10_000)
        assert old_watchdog.engagements == 0
        assert not old_ssm.failsafe_engaged
        assert not sack.ssm.failsafe_engaged
        assert not kernel.obs.audit.by_kind(AUDIT_FAILSAFE)

    def test_refused_reload_keeps_watchdog_armed(self):
        kernel, sack, sackfs, _ = make_world()
        watchdog = sackfs.watchdog
        with pytest.raises(KernelError):
            kernel.write_file(kernel.procs.init,
                              "/sys/kernel/security/SACK/policy",
                              b"policy broken;", create=False)
        assert sackfs.watchdog is watchdog
        kernel.clock.advance_ms(2500)
        assert sack.ssm.failsafe_engaged
        assert watchdog.engagements == 1


class TestSackfsStats:
    def test_eperm_counts_received_and_rejected(self):
        kernel, _, sackfs, _ = make_world()
        intruder = kernel.sys_fork(kernel.procs.init)
        intruder.cred = user_credentials(1234)
        with pytest.raises(KernelError):
            kernel.write_file(intruder, "/sys/kernel/security/SACK/events",
                              b"crash_detected\n", create=False)
        assert sackfs.events_received == 1
        assert sackfs.events_rejected == 1
        stats = kernel.read_file(kernel.procs.init,
                                 "/sys/kernel/security/SACK/stats").decode()
        assert "events_received 1" in stats
        assert "events_rejected 1" in stats

    def test_corrupt_write_cannot_partially_apply(self):
        plan = FaultPlan(seed=11)
        plan.arm(fp.SACKFS_CORRUPT, interval=1)
        kernel, sack, sackfs, sds = make_world(plan)
        before = sack.current_state
        for _ in range(20):
            sds.send_event("crash_detected")
        # Every write either applied fully or was rejected; the ledger
        # never undercounts (a flipped byte may split one write into two
        # parsed events, hence >=).
        assert (sackfs.events_accepted + sackfs.events_rejected
                + sackfs.heartbeats_received) >= sackfs.events_received
        assert sack.current_state in ("emergency", before)

    def test_short_write_rejected_or_applied_never_torn(self):
        plan = FaultPlan(seed=2)
        plan.arm(fp.SACKFS_SHORT_WRITE, nth_calls=frozenset({1}))
        kernel, sack, sackfs, sds = make_world(plan)
        sds.send_event("crash_detected")
        # Truncation either left a parseable prefix or caused a clean
        # rejection — never a crash, never an unbalanced ledger.
        assert sackfs.events_received == 1
        assert (sackfs.events_accepted + sackfs.events_rejected) == 1


class TestTransactionalTransitions:
    def test_listener_failure_rolls_back_state(self):
        kernel, sack, sackfs, sds = make_world()
        plan = FaultPlan()
        plan.arm(fp.SSM_LISTENER_FAIL, nth_calls=frozenset({1}))
        seen = []

        def good_listener(transition):
            seen.append((transition.from_state, transition.to_state))

        def bad_listener(transition):
            if plan.should_fail(fp.SSM_LISTENER_FAIL):
                raise fp.InjectedFault(fp.SSM_LISTENER_FAIL)

        sack.ssm.add_listener(good_listener)
        sack.ssm.add_listener(bad_listener)
        # The write itself succeeds; the transition fails and rolls back.
        assert sds.send_event("crash_detected")
        assert sack.current_state == "parking_with_driver"
        assert sack.ssm.rollback_count == 1
        assert sack.ssm.transitions_failed == 1
        assert sack.ssm.transition_count == 0
        # The good listener saw the new state, then the rollback.
        assert seen == [("parking_with_driver", "emergency"),
                        ("emergency", "parking_with_driver")]
        # The APE still enforces the old state.
        assert sack.ape.current_state == "parking_with_driver"
        # The rollback was audited.
        assert len(kernel.obs.audit.by_kind(AUDIT_ROLLBACK)) == 1
        # The next (un-faulted) event transitions normally.
        sds.send_event("crash_detected")
        assert sack.current_state == "emergency"
        assert sack.ape.current_state == "emergency"

    def test_failed_rollback_degrades_to_failsafe(self):
        kernel, sack, _, sds = make_world()

        def fails_the_rollback(transition):
            # Accepts the forward notification (to emergency) but breaks
            # when asked to restore the old state.
            if transition.to_state == "parking_with_driver":
                raise fp.InjectedFault(fp.SSM_LISTENER_FAIL, "rollback")

        def always_fails(transition):
            raise fp.InjectedFault(fp.SSM_LISTENER_FAIL)

        sack.ssm.add_listener(fails_the_rollback)
        sack.ssm.add_listener(always_fails)
        assert sds.send_event("crash_detected")
        # Forward notification broke, then the rollback broke too: the
        # machine must degrade to the policy-declared failsafe state
        # rather than run with a half-updated enforcement plane.
        assert sack.ssm.failsafe_entries == 1
        assert sack.ssm.failsafe_engaged
        assert sack.current_state == "emergency"
        assert sack.ape.current_state == "emergency"
        # The hopeless listener was retried and given up on.
        assert sack.ssm.listener_failures == 1
        assert len(kernel.obs.audit.by_kind(AUDIT_FAILSAFE)) == 1

    def test_force_state_notifies_listeners(self):
        _, sack, _, _ = make_world()
        seen = []
        sack.ssm.add_listener(
            lambda t: seen.append((t.event.name, t.to_state)))
        transition = sack.ssm.force_state("emergency")
        assert transition is not None
        assert seen == [(FORCE_EVENT, "emergency")]
        # The APE followed the forced transition.
        assert sack.ape.current_state == "emergency"
        # Forced transitions are counted apart from event transitions.
        assert sack.ssm.forced_count == 1
        assert sack.ssm.transition_count == 0

    def test_force_state_same_state_is_noop(self):
        _, sack, _, _ = make_world()
        assert sack.ssm.force_state("parking_with_driver") is None
        assert sack.ssm.forced_count == 0

    def test_bridge_reload_failure_keeps_profiles_consistent(self):
        plan = FaultPlan()
        # Call 1 is the initial-state apply at policy load; call 2 is the
        # first real transition's profile rewrite.
        plan.arm(fp.BRIDGE_RELOAD_FAIL, nth_calls=frozenset({2}))
        world = build_ivi_world(EnforcementConfig.SACK_APPARMOR,
                                fault_plan=plan)
        ssm = world.bridge.ssm
        world.dynamics.start_engine()
        world.dynamics.accelerate(5.0)
        world.run_sds(30)
        assert ssm.rollback_count >= 1
        # Rollback left the SSM state and the live profiles agreeing.
        assert world.bridge.verify_consistency() == []
        assert ssm.current_name == "parking_with_driver"
