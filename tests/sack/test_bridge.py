"""Tests for SACK-enhanced AppArmor (the bridge prototype)."""

import pytest

from repro.apparmor import AppArmorLsm, FilePerm
from repro.kernel import KernelError, user_credentials
from repro.lsm import boot_kernel
from repro.sack import SACK_ORIGIN, SackAppArmorBridge, parse_policy
from repro.sack.apparmor_bridge import mac_rule_to_path_rule
from repro.sack.events import SituationEvent
from repro.sack.policy.model import MacRule, RuleDecision, RuleOp

SYMBOLS = {"VOLUME_GET": (2 << 30) | 0x302, "VOLUME_SET": (1 << 30) | 0x301,
           "DOOR_UNLOCK": (1 << 30) | 0x102}

PROFILES = """
profile rescue_daemon /usr/bin/rescue_daemon {
  /usr/bin/rescue_daemon rm,
  /dev/car/** r,
}

profile media_app /usr/bin/media_app {
  /usr/bin/media_app rm,
  /dev/car/audio r,
}
"""

POLICY = """
policy bridge_test;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions {
  DOORS;
  AUDIO_GET;
}
state_per {
  normal: AUDIO_GET;
  emergency: DOORS, AUDIO_GET;
}
per_rules {
  DOORS {
    allow write /dev/car/door subject=rescue_daemon;
    allow ioctl /dev/car/door cmd=DOOR_UNLOCK subject=rescue_daemon;
  }
  AUDIO_GET {
    allow ioctl /dev/car/audio cmd=VOLUME_GET;
  }
}
guard /dev/car/**;
targets {
  rescue_daemon;
  media_app;
}
"""


@pytest.fixture
def world():
    apparmor = AppArmorLsm()
    apparmor.policy.load_text(PROFILES)
    bridge = SackAppArmorBridge(apparmor)
    kernel, fw = boot_kernel([bridge, apparmor])
    bridge.load_policy(parse_policy(POLICY), ioctl_symbols=SYMBOLS)
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/door", mode=0o666)
    kernel.vfs.create_file("/dev/car/audio", mode=0o666)
    for exe in ("rescue_daemon", "media_app"):
        kernel.vfs.create_file(f"/usr/bin/{exe}", mode=0o755)
    return kernel, apparmor, bridge


def confined(kernel, name, uid=1000):
    task = kernel.sys_fork(kernel.procs.init)
    task.cred = user_credentials(uid)
    kernel.sys_execve(task, f"/usr/bin/{name}")
    return task


class TestRuleTranslation:
    def test_write_rule(self):
        rule = MacRule(RuleDecision.ALLOW, RuleOp.WRITE, "/dev/car/door")
        aa = mac_rule_to_path_rule(rule)
        assert aa.perms == FilePerm.WRITE
        assert aa.origin == SACK_ORIGIN
        assert not aa.deny

    def test_deny_translates(self):
        rule = MacRule(RuleDecision.DENY, RuleOp.READ, "/x")
        assert mac_rule_to_path_rule(rule).deny

    def test_read_direction_ioctl_maps_to_read(self):
        rule = MacRule(RuleDecision.ALLOW, RuleOp.IOCTL, "/dev/car/audio",
                       ioctl_cmds=frozenset({"VOLUME_GET"}))
        assert mac_rule_to_path_rule(rule, SYMBOLS).perms == FilePerm.READ

    def test_write_direction_ioctl_maps_to_write(self):
        rule = MacRule(RuleDecision.ALLOW, RuleOp.IOCTL, "/dev/car/audio",
                       ioctl_cmds=frozenset({"VOLUME_SET"}))
        assert mac_rule_to_path_rule(rule, SYMBOLS).perms == FilePerm.WRITE

    def test_unfiltered_ioctl_is_write(self):
        rule = MacRule(RuleDecision.ALLOW, RuleOp.IOCTL, "/dev/car/audio")
        assert mac_rule_to_path_rule(rule, SYMBOLS).perms == FilePerm.WRITE

    def test_exec_and_mmap(self):
        assert mac_rule_to_path_rule(
            MacRule(RuleDecision.ALLOW, RuleOp.EXEC, "/bin/x")).perms == \
            FilePerm.EXEC
        assert mac_rule_to_path_rule(
            MacRule(RuleDecision.ALLOW, RuleOp.MMAP, "/lib/x")).perms == \
            FilePerm.MMAP


class TestProfileRewriting:
    def test_initial_state_applied_at_load(self, world):
        _, apparmor, bridge = world
        assert bridge.current_state == "normal"
        rescue = apparmor.policy.get("rescue_daemon")
        sack_rules = [r for r in rescue.path_rules
                      if r.origin == SACK_ORIGIN]
        # normal state: only the AUDIO_GET rule applies to rescue_daemon.
        assert len(sack_rules) == 1

    def test_transition_injects_door_rules(self, world):
        _, apparmor, bridge = world
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        rescue = apparmor.policy.get("rescue_daemon")
        assert rescue.allows_file("/dev/car/door", FilePerm.WRITE)

    def test_subject_scoping(self, world):
        _, apparmor, bridge = world
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        media = apparmor.policy.get("media_app")
        assert not media.allows_file("/dev/car/door", FilePerm.WRITE)

    def test_rules_retracted_on_exit(self, world):
        _, apparmor, bridge = world
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        bridge.ssm.process_event(SituationEvent(name="emergency_cleared"))
        rescue = apparmor.policy.get("rescue_daemon")
        assert not rescue.allows_file("/dev/car/door", FilePerm.WRITE)

    def test_static_rules_preserved_across_updates(self, world):
        _, apparmor, bridge = world
        for _ in range(3):
            bridge.ssm.process_event(SituationEvent(name="crash_detected"))
            bridge.ssm.process_event(
                SituationEvent(name="emergency_cleared"))
        rescue = apparmor.policy.get("rescue_daemon")
        static = [r for r in rescue.path_rules if r.origin == "static"]
        assert len(static) == 2  # exe + /dev/car/** r

    def test_revision_bumps_per_update(self, world):
        _, apparmor, bridge = world
        before = apparmor.policy.revision
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        assert apparmor.policy.revision > before

    def test_update_counters(self, world):
        _, _, bridge = world
        assert bridge.update_count == 1  # initial application
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        assert bridge.update_count == 2
        assert bridge.stats()["state"] == "emergency"


class TestEndToEndEnforcement:
    def test_door_write_denied_then_allowed(self, world):
        kernel, _, bridge = world
        rescue = confined(kernel, "rescue_daemon")
        with pytest.raises(KernelError):
            kernel.write_file(rescue, "/dev/car/door", b"unlock",
                              create=False)
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        kernel.write_file(rescue, "/dev/car/door", b"unlock", create=False)

    def test_media_app_never_gets_doors(self, world):
        kernel, _, bridge = world
        media = confined(kernel, "media_app")
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        with pytest.raises(KernelError):
            kernel.write_file(media, "/dev/car/door", b"x", create=False)

    def test_bridge_itself_never_denies(self, world):
        """The per-access check path is pure AppArmor (paper §IV-B)."""
        kernel, _, bridge = world
        from repro.lsm import Hook
        fw = kernel.security
        assert fw._hook_lists[Hook.FILE_OPEN][0][0] == "apparmor"
        assert all(name != "sack"
                   for name, _ in fw._hook_lists[Hook.FILE_PERMISSION])


class TestFailedReload:
    def test_reload_fault_fails_write_and_keeps_old_policy(self):
        """A profile-reload fault during a SACKfs policy write fails the
        write with EIO and leaves the old policy, SSM, profiles and
        watchdog in force."""
        from repro.faults import FaultPlan
        from repro.faults import points as fp
        from repro.kernel import Errno
        from repro.vehicle.ivi import (DEFAULT_SACK_POLICY,
                                       EnforcementConfig, build_ivi_world)

        plan = FaultPlan()
        # Call 1 is the boot-time load; call 2 is the transition below;
        # call 3 is the reload under test.
        plan.arm(fp.BRIDGE_RELOAD_FAIL, nth_calls=frozenset({3}))
        world = build_ivi_world(EnforcementConfig.SACK_APPARMOR,
                                fault_plan=plan)
        bridge = world.bridge
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        ssm, policy, watchdog = bridge.ssm, bridge.policy, \
            world.sackfs.watchdog
        epoch = world.framework.epoch

        def sack_rules():
            return {p.name: sorted((r.glob, r.perms.value, r.deny)
                                   for r in p.path_rules
                                   if r.origin == SACK_ORIGIN)
                    for p in bridge._target_profiles()}

        rules = sack_rules()
        with pytest.raises(KernelError) as info:
            world.kernel.write_file(
                world.kernel.procs.init, "/sys/kernel/security/SACK/policy",
                DEFAULT_SACK_POLICY.encode(), create=False)
        assert info.value.errno is Errno.EIO
        assert plan.injected[fp.BRIDGE_RELOAD_FAIL] == 1
        assert bridge.ssm is ssm and bridge.policy is policy
        assert ssm.current_name == "emergency"
        assert sack_rules() == rules
        assert bridge.verify_consistency() == []
        assert world.sackfs.watchdog is watchdog
        assert world.framework.epoch == epoch
        # The old machine still drives the profiles.
        ssm.process_event(SituationEvent(name="emergency_cleared"))
        assert bridge.verify_consistency() == []
        assert sack_rules() != rules


def _legacy_install(bridge, state_name):
    """The clone-and-translate install the bridge used before it kept
    its translations: every rule of *state_name* translated afresh for
    every target profile.  Kept here only as the differential oracle."""
    from repro.apparmor.globs import glob_match
    rules = bridge.policy.rules_for_state(state_name)
    staged = {}
    for profile in bridge._target_profiles():
        updated = profile.clone()
        updated.remove_rules_by_origin(SACK_ORIGIN)
        for rule in rules:
            if rule.subject is None or glob_match(rule.subject,
                                                  updated.name):
                updated.add_rule(
                    mac_rule_to_path_rule(rule, bridge.ioctl_symbols))
        staged[updated.name] = updated
    return staged


def _rule_keys(profile):
    return [(r.glob, r.perms.value, r.deny, r.exec_mode, r.origin)
            for r in profile.path_rules]


def _differential_policies():
    from pathlib import Path
    from repro.bench.harness import make_synthetic_policy
    from repro.vehicle.ivi import DEFAULT_SACK_POLICY
    root = Path(__file__).resolve().parents[2]
    policies = [("default", parse_policy(DEFAULT_SACK_POLICY)),
                ("emergency", parse_policy(
                    (root / "examples" / "emergency.sack").read_text()))]
    policies += [(f"synthetic-{count}", make_synthetic_policy(count))
                 for count in (10, 100, 500, 1000)]
    return policies


def _ivi_bridge(policy):
    from repro.vehicle.devices import IOCTL_SYMBOLS
    from repro.vehicle.ivi import IVI_APPARMOR_PROFILES
    apparmor = AppArmorLsm()
    apparmor.policy.load_text(IVI_APPARMOR_PROFILES)
    bridge = SackAppArmorBridge(apparmor)
    kernel, framework = boot_kernel([bridge, apparmor])
    bridge.load_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)
    return apparmor, bridge, framework


class TestPrecomputedInstall:
    @pytest.mark.parametrize("label,policy", _differential_policies(),
                             ids=lambda v: v if isinstance(v, str) else "")
    def test_matches_clone_and_translate(self, label, policy):
        """Every state installs exactly the rules (and order) the old
        per-transition translation produced, profile by profile."""
        apparmor, bridge, _ = _ivi_bridge(policy)
        for state in sorted(s.name for s in policy.states):
            expected = _legacy_install(bridge, state)
            bridge._install_state(state)
            live = {p.name: _rule_keys(p)
                    for p in bridge._target_profiles()}
            assert live == {name: _rule_keys(p)
                            for name, p in expected.items()}, state
            assert set(live) == set(expected)

    def test_repeated_state_translates_nothing(self, world, monkeypatch):
        from repro.sack import apparmor_bridge
        _, _, bridge = world
        calls = []
        original = apparmor_bridge.mac_rule_to_path_rule

        def counting(rule, symbols=None):
            calls.append(rule)
            return original(rule, symbols)

        monkeypatch.setattr(apparmor_bridge, "mac_rule_to_path_rule",
                            counting)
        ssm = bridge.ssm
        ssm.process_event(SituationEvent(name="crash_detected"))
        ssm.process_event(SituationEvent(name="emergency_cleared"))
        first_visits = len(calls)
        assert first_visits > 0      # a fresh load translates on demand
        for _ in range(3):
            ssm.process_event(SituationEvent(name="crash_detected"))
            ssm.process_event(SituationEvent(name="emergency_cleared"))
        assert len(calls) == first_visits
        assert bridge.verify_consistency() == []

    def test_reload_retranslates(self, world):
        """A new policy load drops the kept translations: the next
        transition installs the new policy's rules."""
        _, apparmor, bridge = world
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        narrowed = POLICY.replace(
            "allow write /dev/car/door subject=rescue_daemon;\n", "")\
            .replace("allow ioctl /dev/car/door cmd=DOOR_UNLOCK "
                     "subject=rescue_daemon;\n", "")
        bridge.load_policy(parse_policy(narrowed), ioctl_symbols=SYMBOLS)
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        rescue = apparmor.policy.get("rescue_daemon")
        assert not rescue.allows_file("/dev/car/door", FilePerm.WRITE)
        assert bridge.verify_consistency() == []

    def test_admin_reload_keeps_bridged_rules_on_next_transition(self,
                                                                 world):
        """An admin load of the base profiles between transitions is
        picked up: the next transition layers the state's rules onto the
        new base."""
        _, apparmor, bridge = world
        apparmor.policy.load_text(PROFILES.replace(
            "/dev/car/audio r,", "/dev/car/audio r,\n  /var/media/** r,"))
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        media = apparmor.policy.get("media_app")
        assert media.allows_file("/var/media/song", FilePerm.READ)
        assert bridge.verify_consistency() == []


class TestAtomicSwap:
    def test_one_transition_is_one_revision_and_two_bumps(self):
        from repro.vehicle.ivi import DEFAULT_SACK_POLICY
        apparmor, bridge, framework = _ivi_bridge(
            parse_policy(DEFAULT_SACK_POLICY))
        revision = apparmor.policy.revision
        epoch = framework.epoch
        reasons = dict(framework.bump_reasons)
        assert bridge.ssm.process_event(
            SituationEvent(name="vehicle_started")) is not None
        assert apparmor.policy.revision == revision + 1
        assert framework.epoch == epoch + 2
        assert framework.bump_reasons["profile-reload"] == \
            reasons["profile-reload"] + 1
        assert framework.bump_reasons["transition"] == \
            reasons.get("transition", 0) + 1
        assert bridge.stats()["profile_updates"] == 2

    def test_reload_fault_on_transition_keeps_old_profiles(self, world):
        """``BRIDGE_RELOAD_FAIL`` on a transition: the SSM rolls back and
        the profiles, revision and epoch are the old ones."""
        from repro.faults import FaultPlan
        from repro.faults import points as fp
        kernel, apparmor, bridge = world
        plan = FaultPlan()
        plan.arm(fp.BRIDGE_RELOAD_FAIL, nth_calls=frozenset({1}))
        bridge.fault_plan = plan
        profiles = {name: apparmor.policy.get(name)
                    for name in apparmor.policy.profile_names()}
        revision = apparmor.policy.revision
        epoch = kernel.security.epoch
        assert bridge.ssm.process_event(
            SituationEvent(name="crash_detected")) is None
        assert plan.injected[fp.BRIDGE_RELOAD_FAIL] == 1
        assert bridge.current_state == "normal"
        assert {name: apparmor.policy.get(name)
                for name in apparmor.policy.profile_names()} == profiles
        assert apparmor.policy.revision == revision
        assert kernel.security.epoch == epoch
        assert bridge.verify_consistency() == []
        # The next attempt goes through.
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        assert bridge.current_state == "emergency"
        assert bridge.verify_consistency() == []
