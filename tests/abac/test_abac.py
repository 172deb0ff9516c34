"""Tests for the ABAC baseline: attributes, policy, module."""

import pytest

from repro.abac import (AbacEffect, AbacLsm, AbacPolicy, AbacRule,
                        EnvironmentAttributes, subject_attributes)
from repro.kernel import KernelError, VirtualClock, user_credentials
from repro.lsm import boot_kernel
from repro.sack.policy.model import RuleOp

HOUR_NS = 3600 * 10**9


class TestEnvironmentAttributes:
    def test_hour_progression(self):
        clock = VirtualClock()
        env = EnvironmentAttributes(clock)
        assert env.hour_of_day() == 0
        clock.advance_ns(5 * HOUR_NS)
        assert env.hour_of_day() == 5
        clock.advance_ns(20 * HOUR_NS)
        assert env.hour_of_day() == 1  # wrapped past midnight

    def test_day_of_week(self):
        clock = VirtualClock()
        env = EnvironmentAttributes(clock, epoch_weekday=0)
        assert env.day_of_week() == "mon"
        clock.advance_ns(24 * HOUR_NS)
        assert env.day_of_week() == "tue"
        clock.advance_ns(6 * 24 * HOUR_NS)
        assert env.day_of_week() == "mon"

    def test_query_counting(self):
        env = EnvironmentAttributes(VirtualClock())
        env.snapshot()
        assert env.queries == 2

    def test_subject_attributes(self):
        from repro.kernel import Kernel
        task = Kernel().procs.init
        attrs = subject_attributes(task)
        assert attrs["uid"] == 0
        assert attrs["comm"] == "init"


def env(hour=10, day="mon"):
    return {"hour": hour, "day": day}


class TestAbacRules:
    def rule(self, **kwargs):
        defaults = dict(effect=AbacEffect.PERMIT,
                        ops=frozenset({RuleOp.READ}),
                        path_glob="/data/**")
        defaults.update(kwargs)
        return AbacRule(**defaults)

    def test_basic_match(self):
        rule = self.rule()
        assert rule.matches(RuleOp.READ, "/data/f", {}, env())
        assert not rule.matches(RuleOp.WRITE, "/data/f", {}, env())
        assert not rule.matches(RuleOp.READ, "/etc/f", {}, env())

    def test_subject_condition(self):
        rule = self.rule(subject_equals=(("uid", 1000),))
        assert rule.matches(RuleOp.READ, "/data/f", {"uid": 1000}, env())
        assert not rule.matches(RuleOp.READ, "/data/f", {"uid": 0}, env())

    def test_hour_window(self):
        rule = self.rule(hour_range=(9, 17))
        assert rule.matches(RuleOp.READ, "/data/f", {}, env(hour=12))
        assert not rule.matches(RuleOp.READ, "/data/f", {}, env(hour=20))

    def test_overnight_hour_window(self):
        rule = self.rule(hour_range=(22, 6))
        assert rule.matches(RuleOp.READ, "/data/f", {}, env(hour=23))
        assert rule.matches(RuleOp.READ, "/data/f", {}, env(hour=3))
        assert not rule.matches(RuleOp.READ, "/data/f", {}, env(hour=12))

    def test_day_condition(self):
        rule = self.rule(days=frozenset({"sat", "sun"}))
        assert rule.matches(RuleOp.READ, "/data/f", {}, env(day="sun"))
        assert not rule.matches(RuleOp.READ, "/data/f", {}, env(day="wed"))

    def test_bad_hour_range_rejected(self):
        with pytest.raises(ValueError):
            self.rule(hour_range=(25, 3))


class TestAbacPolicy:
    def make(self):
        return AbacPolicy(rules=[
            AbacRule(AbacEffect.PERMIT, frozenset({RuleOp.READ}),
                     "/data/**"),
            AbacRule(AbacEffect.PERMIT, frozenset({RuleOp.WRITE}),
                     "/data/**", hour_range=(9, 17)),
            AbacRule(AbacEffect.DENY, frozenset({RuleOp.WRITE}),
                     "/data/frozen/**"),
        ], guards=["/data/**"])

    def test_permit(self):
        assert self.make().decide(RuleOp.READ, "/data/f", {}, env())

    def test_time_scoped_permit(self):
        policy = self.make()
        assert policy.decide(RuleOp.WRITE, "/data/f", {}, env(hour=10))
        assert not policy.decide(RuleOp.WRITE, "/data/f", {}, env(hour=3))

    def test_deny_overrides(self):
        policy = self.make()
        assert not policy.decide(RuleOp.WRITE, "/data/frozen/f", {},
                                 env(hour=10))

    def test_ungoverned_allowed(self):
        assert self.make().decide(RuleOp.WRITE, "/tmp/x", {}, env(hour=3))

    def test_governed_default_deny(self):
        assert not self.make().decide(RuleOp.UNLINK, "/data/f", {}, env())


class TestAbacLsmEndToEnd:
    @pytest.fixture
    def world(self):
        abac = AbacLsm()
        kernel, _ = boot_kernel([abac])
        abac.load_policy(AbacPolicy(rules=[
            AbacRule(AbacEffect.PERMIT, frozenset({RuleOp.READ}),
                     "/etc/vehicle/**"),
            AbacRule(AbacEffect.PERMIT,
                     frozenset({RuleOp.WRITE, RuleOp.CREATE}),
                     "/etc/vehicle/**", hour_range=(8, 18),
                     subject_equals=(("comm", "maintenance"),)),
        ], guards=["/etc/vehicle/**"]))
        kernel.vfs.makedirs("/etc/vehicle")
        kernel.vfs.create_file("/etc/vehicle/conf", mode=0o666)
        task = kernel.sys_fork(kernel.procs.init)
        task.comm = "maintenance"
        task.cred = user_credentials(1000)
        return kernel, abac, task

    def test_time_gated_write(self, world):
        kernel, abac, task = world
        kernel.clock.advance_s(10 * 3600)  # 10:00
        kernel.write_file(task, "/etc/vehicle/conf", b"x", create=False)
        kernel.clock.advance_s(12 * 3600)  # 22:00
        with pytest.raises(KernelError):
            kernel.write_file(task, "/etc/vehicle/conf", b"x",
                              create=False)
        assert kernel.obs.metrics.counter(
            "lsm_denials_total",
            {"module": "abac", "hook": "file_open"}).value == 1

    def test_subject_gated(self, world):
        kernel, abac, task = world
        kernel.clock.advance_s(10 * 3600)
        other = kernel.sys_fork(kernel.procs.init)
        other.comm = "random_app"
        other.cred = user_credentials(1001)
        with pytest.raises(KernelError):
            kernel.write_file(other, "/etc/vehicle/conf", b"x",
                              create=False)
        kernel.read_file(other, "/etc/vehicle/conf")  # read always OK

    def test_environment_queried_per_access(self, world):
        kernel, abac, task = world
        kernel.clock.advance_s(10 * 3600)
        before = abac.environment.queries
        kernel.read_file(task, "/etc/vehicle/conf")
        assert abac.environment.queries > before

    def test_no_policy_allows_everything(self):
        abac = AbacLsm()
        kernel, _ = boot_kernel([abac])
        kernel.write_file(kernel.procs.init, "/tmp/x", b"y")


class TestExpressivenessGap:
    def test_abac_cannot_express_crash_adaptation(self):
        """The paper's critique made concrete: the baseline's only
        environmental attributes are clock-derived, so a crash cannot
        change its decisions — while SACK flips within one event."""
        from repro.lsm import boot_kernel as boot
        from repro.sack import SackLsm, parse_policy, SituationEvent

        # ABAC side: whatever the rules, the decision is a pure function
        # of (subject, path, op, clock).  A crash changes none of them.
        abac = AbacLsm()
        kernel_a, _ = boot([abac])
        abac.load_policy(AbacPolicy(rules=[], guards=["/dev/car/**"]))
        kernel_a.vfs.makedirs("/dev/car")
        kernel_a.vfs.create_file("/dev/car/door", mode=0o666)
        rescue_a = kernel_a.sys_fork(kernel_a.procs.init)
        rescue_a.comm = "rescue_daemon"
        rescue_a.cred = user_credentials(0, caps=())
        with pytest.raises(KernelError):
            kernel_a.write_file(rescue_a, "/dev/car/door", b"x",
                                create=False)
        # ... a crash happens; nothing in ABAC's attribute space moved:
        with pytest.raises(KernelError):
            kernel_a.write_file(rescue_a, "/dev/car/door", b"x",
                                create=False)

        # SACK side: same request flips after the crash event.
        sack = SackLsm()
        kernel_s, _ = boot([sack])
        sack.load_policy(parse_policy("""
policy crash_demo;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
}
permissions {
  DOORS;
}
state_per {
  emergency: DOORS;
}
per_rules {
  DOORS {
    allow write /dev/car/door subject=rescue_daemon;
  }
}
guard /dev/car/**;
"""))
        kernel_s.vfs.makedirs("/dev/car")
        kernel_s.vfs.create_file("/dev/car/door", mode=0o666)
        rescue_s = kernel_s.sys_fork(kernel_s.procs.init)
        rescue_s.comm = "rescue_daemon"
        rescue_s.cred = user_credentials(0, caps=())
        with pytest.raises(KernelError):
            kernel_s.write_file(rescue_s, "/dev/car/door", b"x",
                                create=False)
        sack.ssm.process_event(SituationEvent(name="crash_detected"))
        kernel_s.write_file(rescue_s, "/dev/car/door", b"x", create=False)
