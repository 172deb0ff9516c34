"""Differential test: the one stack builder boots the stacks the harness
and ``sackctl`` used to assemble by hand.

The reference builders below are the hand-built stacks as they stood
before :func:`repro.vehicle.ivi.build_stack` replaced them; they live
only here.  For every configuration the old and new worlds must agree
on the LSM order, every AppArmor profile's rules, every state's compiled
SACK rules, the current situation state and (for the Table II stacks)
the exact hook census.
"""

import dataclasses
import os

import pytest

from repro.apparmor import AppArmorLsm, load_ubuntu_defaults
from repro.bench.harness import (SPEED_POLICY, build_rule_count_world,
                                 build_state_count_world,
                                 make_synthetic_policy)
from repro.bench.lmbench import LmbenchSuite
from repro.cli import sackctl
from repro.kernel import Kernel
from repro.lsm import HookStats, LsmFramework, boot_kernel
from repro.sack import (SackAppArmorBridge, SackFs, SackLsm,
                        compile_policy, format_policy)
from repro.sack.policy.model import (MacRule, RuleDecision, RuleOp,
                                     SackPermission)
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.ivi import (DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES,
                               EnforcementConfig, build_stack)


@dataclasses.dataclass
class OldWorld:
    kernel: Kernel
    apparmor: object = None
    module: object = None
    stats: object = None


# -- the hand-built stacks, kept as the reference --------------------------------

def old_build_world(config: str, policy_text: str = DEFAULT_SACK_POLICY,
                    with_ubuntu_profiles: bool = True,
                    collect_stats: bool = False) -> OldWorld:
    if config == "no-lsm":
        kernel = Kernel()
        return OldWorld(kernel, stats=(HookStats().attach(kernel.obs)
                                       if collect_stats else None))
    apparmor = sack = bridge = None
    if config in ("apparmor", "sack-apparmor"):
        apparmor = AppArmorLsm()
        if with_ubuntu_profiles:
            load_ubuntu_defaults(apparmor.policy)
        apparmor.policy.load_text(IVI_APPARMOR_PROFILES)
    if config == "apparmor":
        modules = [apparmor]
    elif config == "sack-apparmor":
        bridge = SackAppArmorBridge(apparmor)
        modules = [bridge, apparmor]
    else:
        sack = SackLsm()
        modules = [sack]
    kernel, _ = boot_kernel(modules)
    stats = HookStats().attach(kernel.obs) if collect_stats else None
    module = sack or bridge
    if module is not None:
        SackFs(kernel, module, authorized_event_uids={990},
               ioctl_symbols=IOCTL_SYMBOLS)
        kernel.write_file(kernel.procs.init,
                          "/sys/kernel/security/SACK/policy",
                          policy_text.encode(), create=False)
    return OldWorld(kernel, apparmor, module, stats)


def old_rule_count_world(n_rules: int, with_ubuntu_profiles: bool = True
                         ) -> OldWorld:
    """Table III's world (and, without Ubuntu's profiles, E10's bridge)."""
    apparmor = AppArmorLsm()
    if with_ubuntu_profiles:
        load_ubuntu_defaults(apparmor.policy)
    apparmor.policy.load_text(IVI_APPARMOR_PROFILES)
    bridge = SackAppArmorBridge(apparmor)
    kernel, _ = boot_kernel([bridge, apparmor])
    bridge.load_policy(make_synthetic_policy(n_rules),
                       ioctl_symbols=IOCTL_SYMBOLS)
    return OldWorld(kernel, apparmor, bridge)


def old_independent_world(policy) -> OldWorld:
    """Fig. 3(a)'s world, E10's independent stack and E11's SACK stack."""
    sack = SackLsm()
    kernel, _ = boot_kernel([sack])
    sack.load_policy(policy, ioctl_symbols=IOCTL_SYMBOLS)
    return OldWorld(kernel, module=sack)


def old_speed_world() -> OldWorld:
    """Fig. 3(b)'s world, before its probe files."""
    sack = SackLsm()
    kernel, _ = boot_kernel([sack])
    SackFs(kernel, sack, authorized_event_uids={990},
           ioctl_symbols=IOCTL_SYMBOLS)
    kernel.write_file(kernel.procs.init, "/sys/kernel/security/SACK/policy",
                      SPEED_POLICY.encode(), create=False)
    return OldWorld(kernel, module=sack)


def state_count_policy(n_states: int):
    return make_synthetic_policy(n_states * 2, n_states=n_states,
                                 name=f"states-{n_states}")


def probe_policy(count: int):
    """E11's synthetic policy plus the readable probe path."""
    policy = make_synthetic_policy(count, n_states=2)
    policy.permissions["PROBE"] = SackPermission("PROBE")
    policy.per_rules["PROBE"] = [MacRule(RuleDecision.ALLOW, RuleOp.READ,
                                         "/dev/car/probe")]
    policy.state_per["s0"].add("PROBE")
    return policy


# -- what must agree ---------------------------------------------------------------

def snapshot(kernel, apparmor, module) -> dict:
    framework = kernel.security
    out = {"config_lsm": (framework.config_lsm
                          if isinstance(framework, LsmFramework) else None)}
    if apparmor is not None:
        db = apparmor.policy
        out["profiles"] = {
            name: (db.get(name).mode,
                   [(r.glob, r.bits, r.deny, r.exec_mode, r.origin)
                    for r in db.get(name).path_rules],
                   [(r.family, r.sock_type, r.deny)
                    for r in db.get(name).network_rules],
                   sorted(db.get(name).capabilities))
            for name in db.profile_names()}
    if module is not None:
        compiled = compile_policy(module.policy, ioctl_symbols=IOCTL_SYMBOLS)
        out["rules"] = {
            state: [(op, [rule.source.to_text() for rule in rules])
                    for table in (ruleset.deny_by_op, ruleset.allow_by_op)
                    for op, rules in table.items()]
            for state, ruleset in compiled.rulesets.items()}
        out["state"] = module.ssm.current_name
        ape = getattr(module, "ape", None)
        if ape is not None:
            out["enforced"] = {
                state: [rule.source.to_text()
                        for table in (rs.deny_by_op, rs.allow_by_op)
                        for rules in table.values() for rule in rules]
                for state, rs in ape.compiled.rulesets.items()}
    return out


def old_snapshot(world: OldWorld) -> dict:
    return snapshot(world.kernel, world.apparmor, world.module)


def new_snapshot(stack) -> dict:
    return snapshot(stack.kernel, stack.apparmor, stack.module)


def census(kernel, stats) -> dict:
    LmbenchSuite(kernel, scale=0.02).run()
    return {
        "syscalls": sum(kernel.syscall_counts.values()),
        "hook_calls": stats.total_calls(),
        "sack_hook_calls": sum(v for k, v in stats.calls.items()
                               if k.startswith("sack.")),
    }


OLD_NAMES = {EnforcementConfig.NO_LSM: "no-lsm",
             EnforcementConfig.APPARMOR: "apparmor",
             EnforcementConfig.SACK_APPARMOR: "sack-apparmor",
             EnforcementConfig.SACK_INDEPENDENT: "sack-independent"}


@pytest.mark.parametrize("config", list(EnforcementConfig),
                         ids=lambda c: c.value)
class TestEveryConfig:
    def test_same_stack(self, config):
        old = old_build_world(OLD_NAMES[config])
        new = build_stack(config, with_ubuntu_profiles=True)
        assert new_snapshot(new) == old_snapshot(old)

    def test_same_census(self, config):
        old = old_build_world(OLD_NAMES[config], collect_stats=True)
        # Counted from boot: the probe attaches before the activation.
        new = build_stack(config, policy_text=None,
                          with_ubuntu_profiles=True)
        stats = HookStats().attach(new.kernel.obs)
        new.activate(DEFAULT_SACK_POLICY)
        assert census(new.kernel, stats) == census(old.kernel, old.stats)


@pytest.mark.parametrize("count", [10, 1000])
def test_rule_count_world(count):
    old = old_rule_count_world(count)
    new = build_rule_count_world(count)
    assert new.config is EnforcementConfig.SACK_APPARMOR
    assert new_snapshot(new) == old_snapshot(old)


@pytest.mark.parametrize("count", [10, 1000])
def test_transition_ablation_stacks(count):
    """E10 boots both SACK variants on the synthetic policy, without
    Ubuntu's profiles."""
    text = format_policy(make_synthetic_policy(count))
    old_bridge = old_rule_count_world(count, with_ubuntu_profiles=False)
    new_bridge = build_stack(EnforcementConfig.SACK_APPARMOR,
                             policy_text=text)
    assert new_snapshot(new_bridge) == old_snapshot(old_bridge)
    old_sack = old_independent_world(make_synthetic_policy(count))
    new_sack = build_stack(EnforcementConfig.SACK_INDEPENDENT,
                           policy_text=text)
    assert new_snapshot(new_sack) == old_snapshot(old_sack)


@pytest.mark.parametrize("n_states", [2, 100])
def test_state_count_world(n_states):
    old = old_independent_world(state_count_policy(n_states))
    new = build_state_count_world(n_states)
    assert new_snapshot(new) == old_snapshot(old)


def test_speed_policy_world():
    new = build_stack(EnforcementConfig.SACK_INDEPENDENT,
                      policy_text=SPEED_POLICY)
    assert new_snapshot(new) == old_snapshot(old_speed_world())


@pytest.mark.parametrize("count", [10, 500])
def test_abac_comparison_sack_stack(count):
    old = old_independent_world(probe_policy(count))
    new = build_stack(EnforcementConfig.SACK_INDEPENDENT,
                      policy_text=format_policy(probe_policy(count)))
    assert new_snapshot(new) == old_snapshot(old)


def test_sackctl_observed_world():
    path = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir,
                        "examples", "emergency.sack")
    with open(path, encoding="utf-8") as handle:
        old = old_build_world("sack-independent", policy_text=handle.read())
    kernel, sack, _sds, _app = sackctl._boot_observed_world(path)
    assert snapshot(kernel, None, sack) == old_snapshot(old)
