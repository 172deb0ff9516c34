"""The AppArmor bridge's host-shared translations and per-state sets.

A bridged transition installs the target state's kept profile set; the
set is built on the state's first entry from the live profiles and the
state's rules, which are translated once per host.  These tests drive a
seeded walk over the policy's states, mixed with every event that must
drop the kept sets or leave them alone (an admin profile load, a target
profile edited in place and loaded again, a policy reload, a bundle's
profile load and its restore after a refused policy write, an injected
reload failure, a refused policy load), and compare every live target
profile with a fresh clone-strip-translate oracle after each step.
"""

import copy
import random

import pytest

from repro.apparmor.globs import glob_match
from repro.apparmor.parser import parse_profiles
from repro.apparmor.profile import FilePerm, PathRule, Profile
from repro.faults import FaultPlan
from repro.faults import points as fp
from repro.fleet.vehicle import _restore_profiles
from repro.kernel import KernelError
from repro.lsm import PolicyCache
from repro.sack import SACK_ORIGIN, apparmor_bridge, parse_policy
from repro.sack.events import SituationEvent
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.ivi import (DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES,
                               EnforcementConfig, build_stack)

#: Policies a reload switches between: the default, one with the same
#: targets and other rules, one with a narrower target list and more
#: rules, and one that targets every profile.
POLICIES = (
    DEFAULT_SACK_POLICY,
    DEFAULT_SACK_POLICY
    .replace("policy ivi_default;", "policy ivi_swapped;")
    .replace("parking_with_driver: NORMAL, AUDIO_FULL, AUDIO_SAFE, "
             "ENGINE_CONTROL;", "parking_with_driver: NORMAL, AUDIO_SAFE;")
    .replace("emergency: NORMAL, CONTROL_CAR_DOORS, AUDIO_SAFE;",
             "emergency: NORMAL, CONTROL_CAR_DOORS, AUDIO_FULL;"),
    DEFAULT_SACK_POLICY
    .replace("policy ivi_default;", "policy ivi_wider;")
    .replace("driving: NORMAL, AUDIO_SAFE;",
             "driving: NORMAL, AUDIO_SAFE, AUDIO_FULL;")
    .replace("  nav_app;\n", ""),
    DEFAULT_SACK_POLICY
    .replace("policy ivi_default;", "policy ivi_all_targets;")
    .split("targets {")[0],
)

#: Admin profile loads: base rules change under a kept set, or a new
#: profile joins an all-profiles target list.
PROFILE_TEXTS = (
    IVI_APPARMOR_PROFILES,
    IVI_APPARMOR_PROFILES.replace("/var/media/** rw,",
                                  "/var/media/** rw,\n  /var/cache/** r,"),
    IVI_APPARMOR_PROFILES.replace("/var/log/rescue.log rw,",
                                  "/var/log/rescue.log rw,\n"
                                  "  /dev/car/door w,"),
    "profile extra_app /usr/bin/extra_app {\n"
    "  /usr/bin/extra_app rm,\n}\n",
)

REFUSED_POLICY = "policy broken;\nthis is not a policy\n"

#: Base rules an admin adds to a live profile in place.
EDITS = (PathRule("/var/cache/**", FilePerm.READ),
         PathRule("/var/media/secret/**", FilePerm.WRITE, deny=True))


def _stack(cache=None):
    return build_stack(EnforcementConfig.SACK_APPARMOR,
                       policy_text=DEFAULT_SACK_POLICY,
                       policy_cache=cache if cache is not None
                       else PolicyCache())


def _keys(rules):
    return [(r.glob, r.bits, r.deny, r.origin) for r in rules]


class Oracle:
    """What the live target profiles must hold, tracked apart from the
    bridge: the base profiles as last loaded and the policy in force,
    parsed afresh, cloned, stripped and translated on every check."""

    def __init__(self):
        self.base = {}
        self.load_profiles(IVI_APPARMOR_PROFILES)
        self.policy = parse_policy(DEFAULT_SACK_POLICY)

    def load_profiles(self, text):
        for profile in parse_profiles(text):
            self.base[profile.name] = profile

    def expected(self, state):
        names = self.policy.targets or sorted(self.base)
        rules = self.policy.rules_for_state(state)
        out = {}
        for name in names:
            if name not in self.base:
                continue
            profile = self.base[name].clone()
            profile.remove_rules_by_origin(SACK_ORIGIN)
            for rule in rules:
                if rule.subject is None or glob_match(rule.subject, name):
                    profile.path_rules.append(
                        apparmor_bridge.mac_rule_to_path_rule(
                            rule, IOCTL_SYMBOLS))
            out[name] = _keys(profile.path_rules)
        return out


def _live(stack, oracle):
    db = stack.apparmor.policy
    names = oracle.policy.targets or db.profile_names()
    return {name: _keys(db.get(name).path_rules)
            for name in names if db.get(name) is not None}


def _check(stack, oracle, step):
    bridge = stack.bridge
    assert _live(stack, oracle) == oracle.expected(bridge.current_state), \
        step
    assert bridge.verify_consistency() == [], step


def _transition(stack, rng):
    """Commit one transition out of the current state."""
    ssm = stack.bridge.ssm
    current = ssm.current_name
    events = sorted({t.event for t in stack.bridge.policy.transitions
                     if t.from_state in (current, "*")
                     and t.to_state != current})
    assert ssm.process_event(
        SituationEvent(name=rng.choice(events))) is not None
    assert ssm.current_name != current


def _refuse(stack, text):
    with pytest.raises(KernelError):
        stack.load_policy(text)


def _inject_reload_fail(stack, rng):
    """Fail the bridge's next profile reload, on a transition or on a
    policy load: either way nothing changes."""
    bridge = stack.bridge
    plan = FaultPlan()
    plan.arm(fp.BRIDGE_RELOAD_FAIL, nth_calls=frozenset({1}))
    bridge.fault_plan = plan
    state = bridge.current_state
    try:
        if rng.random() < 0.5:
            event = rng.choice(sorted({t.event for t in
                                       bridge.policy.transitions}))
            assert bridge.ssm.process_event(
                SituationEvent(name=event)) is None
        else:
            _refuse(stack, rng.choice(POLICIES))
    finally:
        bridge.fault_plan = None
    assert bridge.current_state == state


def _walk(seed, steps=60):
    rng = random.Random(seed)
    stack = _stack()
    oracle = Oracle()
    db = stack.apparmor.policy
    _check(stack, oracle, "boot")
    for index in range(steps):
        kind = rng.choice(("event", "event", "event", "admin", "edit",
                           "reload", "bundle", "bundle-refused", "fault",
                           "refused"))
        step = f"seed {seed} step {index} {kind}"
        if kind == "event":
            _transition(stack, rng)
        elif kind == "admin":
            # An admin load between transitions: the next transition
            # layers its state onto the new base.
            text = rng.choice(PROFILE_TEXTS)
            db.load_text(text)
            oracle.load_profiles(text)
            _transition(stack, rng)
        elif kind == "edit":
            # A live target edited in place and loaded again: the same
            # object, a new revision.
            name = rng.choice(sorted(_live(stack, oracle)))
            rule = rng.choice(EDITS)
            profile = db.get(name)
            profile.add_rule(rule)
            db.load_profile(profile)
            oracle.base[name] = oracle.base[name].clone()
            oracle.base[name].add_rule(rule)
            _transition(stack, rng)
        elif kind == "reload":
            text = rng.choice(POLICIES)
            stack.load_policy(text)
            oracle.policy = parse_policy(text)
        elif kind == "bundle":
            profiles, text = rng.choice(PROFILE_TEXTS), rng.choice(POLICIES)
            db.load_text(profiles)
            stack.load_policy(text)
            oracle.load_profiles(profiles)
            oracle.policy = parse_policy(text)
        elif kind == "bundle-refused":
            before = {name: db.get(name) for name in db.profile_names()}
            db.load_text(rng.choice(PROFILE_TEXTS))
            _refuse(stack, REFUSED_POLICY)
            _restore_profiles(db, before)
        elif kind == "fault":
            _inject_reload_fail(stack, rng)
        else:
            _refuse(stack, REFUSED_POLICY)
        _check(stack, oracle, step)


class TestDifferentialWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_live_profiles_match_the_oracle(self, seed):
        _walk(seed)


def _visit_every_state(stack):
    """Enter every state of the default policy at least twice."""
    ssm = stack.bridge.ssm
    for event in ("vehicle_started", "vehicle_parked", "driver_left",
                  "driver_returned", "crash_detected", "emergency_cleared",
                  "vehicle_started", "vehicle_parked", "driver_left",
                  "driver_returned", "crash_detected",
                  "emergency_cleared"):
        assert ssm.process_event(SituationEvent(name=event)) is not None


def _count_translations(monkeypatch):
    calls = []
    original = apparmor_bridge.mac_rule_to_path_rule

    def counting(rule, symbols=None):
        calls.append(rule)
        return original(rule, symbols)

    monkeypatch.setattr(apparmor_bridge, "mac_rule_to_path_rule", counting)
    return calls


def _count_clones(monkeypatch):
    calls = []
    original = Profile.clone

    def counting(profile):
        calls.append(profile.name)
        return original(profile)

    monkeypatch.setattr(Profile, "clone", counting)
    return calls


class TestHostSharedTranslations:
    def test_second_vehicle_translates_nothing(self, monkeypatch):
        cache = PolicyCache()
        first = _stack(cache)
        _visit_every_state(first)
        calls = _count_translations(monkeypatch)
        second = _stack(cache)
        _visit_every_state(second)
        assert calls == []
        assert second.bridge.compiled is first.bridge.compiled
        assert second.bridge.verify_consistency() == []

    def test_a_host_translates_each_pair_at_most_once(self, monkeypatch):
        calls = _count_translations(monkeypatch)
        cache = PolicyCache()
        stacks = [_stack(cache) for _ in range(3)]
        for stack in stacks:
            _visit_every_state(stack)
        policy = parse_policy(DEFAULT_SACK_POLICY)
        pairs = sum(
            1 for state in policy.states.names()
            for target in policy.targets
            for rule in policy.rules_for_state(state)
            if rule.subject is None or glob_match(rule.subject, target))
        assert len(calls) == pairs
        # The consistency check is the check on that table: it
        # translates for itself.
        stacks[0].bridge.verify_consistency()
        assert len(calls) > pairs

    def test_a_checkpoint_copy_reads_the_host_table(self, monkeypatch):
        """A fleet checkpoint deep-copies a vehicle: the copy keeps its
        kept sets and reads the host's translations, not a copy."""
        stack = _stack()
        _visit_every_state(stack)
        restored = copy.deepcopy(stack)
        assert restored.bridge.compiled.bridge_rules is \
            stack.bridge.compiled.bridge_rules
        calls = _count_translations(monkeypatch)
        clones = _count_clones(monkeypatch)
        _visit_every_state(restored)
        assert calls == [] and clones == []
        assert restored.bridge.verify_consistency() == []

    def test_consistency_check_does_not_read_the_shared_table(self):
        """A wrong shared translation is caught, not echoed."""
        stack = _stack()
        bridge = stack.bridge
        table = bridge.compiled.bridge_rules
        table[("emergency", "rescue_daemon")] = ()
        bridge.ssm.process_event(SituationEvent(name="crash_detected"))
        assert bridge.verify_consistency() != []

    def test_a_failed_load_keeps_the_old_compile_and_sets(self,
                                                          monkeypatch):
        stack = _stack()
        _visit_every_state(stack)
        bridge = stack.bridge
        compiled = bridge.compiled
        plan = FaultPlan()
        plan.arm(fp.BRIDGE_RELOAD_FAIL, nth_calls=frozenset({1}))
        bridge.fault_plan = plan
        _refuse(stack, POLICIES[2])
        assert plan.injected[fp.BRIDGE_RELOAD_FAIL] == 1
        assert bridge.compiled is compiled
        clones = _count_clones(monkeypatch)
        _visit_every_state(stack)
        assert clones == []
        assert bridge.verify_consistency() == []


class TestKeptSets:
    def test_reentry_is_one_swap_and_no_clone(self, monkeypatch):
        stack = _stack()
        _visit_every_state(stack)
        clones = _count_clones(monkeypatch)
        db, framework = stack.apparmor.policy, stack.framework
        revision, epoch = db.revision, framework.epoch
        reasons = dict(framework.bump_reasons)
        _visit_every_state(stack)
        assert clones == []
        assert db.revision == revision + 12
        assert framework.epoch == epoch + 12
        assert framework.bump_reasons == {
            **reasons, "transition": reasons.get("transition", 0) + 12}
        assert stack.bridge.verify_consistency() == []

    def test_in_place_edit_survives_every_state(self):
        """Every state's kept set predates the edit; each is rebuilt on
        the edited base, so the edit holds in every state."""
        stack = _stack()
        _visit_every_state(stack)
        db = stack.apparmor.policy
        media = db.get("media_app")
        media.add_rule(EDITS[0])
        db.load_profile(media)
        ssm = stack.bridge.ssm
        for event in ("vehicle_started", "vehicle_parked", "driver_left",
                      "driver_returned", "crash_detected",
                      "emergency_cleared", "vehicle_started"):
            assert ssm.process_event(SituationEvent(name=event)) is not None
            rules = db.get("media_app").path_rules
            assert [r for r in rules if r.glob == "/var/cache/**"] == \
                [EDITS[0]], event
            assert stack.bridge.verify_consistency() == []

    @pytest.mark.parametrize("text", PROFILE_TEXTS[1:], ids=("target-base",
                                                             "door-rule",
                                                             "non-target"))
    def test_any_profile_load_drops_the_kept_sets(self, monkeypatch, text):
        stack = _stack()
        _visit_every_state(stack)
        stack.apparmor.policy.load_text(text)
        clones = _count_clones(monkeypatch)
        stack.bridge.ssm.process_event(
            SituationEvent(name="vehicle_started"))
        assert len(clones) == len(stack.bridge.policy.targets)
        assert stack.bridge.verify_consistency() == []

    def test_restored_bundle_profiles_rebuild_on_the_old_base(self):
        """The swap-back after a refused bundle moves the revision, so
        every state is rebuilt on the restored profiles."""
        stack = _stack()
        _visit_every_state(stack)
        db = stack.apparmor.policy
        before = {name: db.get(name) for name in db.profile_names()}
        db.load_text(PROFILE_TEXTS[2])
        _refuse(stack, REFUSED_POLICY)
        _restore_profiles(db, before)
        _visit_every_state(stack)
        rescue = db.get("rescue_daemon")
        assert [r.glob for r in rescue.path_rules
                if r.origin != SACK_ORIGIN].count("/dev/car/door") == 0
        assert stack.bridge.verify_consistency() == []
