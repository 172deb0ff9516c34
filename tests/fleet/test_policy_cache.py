"""One parse and compile per host, and all-or-nothing bundle applies.

Every fleet host owns one :class:`~repro.lsm.policycache.PolicyCache`
that its vehicles read their policy texts through.  These tests pin its
scope (per host: two fleets built one after the other do identical
work), the sharing it must not leak through (one vehicle's
profile edits are its own), and the bundle apply it serves: a bundle
whose policy load fails leaves the vehicle's previous profiles, bridged
rules included, in force.
"""

import sys

import pytest

from repro.apparmor.profile import FilePerm, PathRule
from repro.faults import FaultPlan
from repro.faults import points as fp
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.rollout import RolloutState
from repro.fleet.vehicle import FleetVehicle
from repro.sack.events import SituationEvent
from repro.vehicle.ivi import DEFAULT_SACK_POLICY, IVI_APPARMOR_PROFILES

KEY = b"sack-fleet-signing-key"

#: Same rules under a new name: a second distinct bundle text.
SECOND_POLICY = DEFAULT_SACK_POLICY.replace("policy ivi_default;",
                                            "policy ivi_default_v2;")


def _bundle(version, policy_text=DEFAULT_SACK_POLICY,
            profiles=IVI_APPARMOR_PROFILES):
    return make_bundle(version, policy_text, {"ivi": profiles},
                       signer=BundleSigner(KEY))


def _count_calls(monkeypatch, function, attr):
    """Count calls to *function* through every ``repro`` module binding
    it as *attr* (the way a tracer would see them)."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    for name, module in sorted(sys.modules.items()):
        if ((name == "repro" or name.startswith("repro."))
                and getattr(module, attr, None) is function):
            monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture
def counts(monkeypatch):
    from repro.apparmor.parser import parse_profiles
    from repro.sack.policy.compiler import compile_policy
    return {"compile": _count_calls(monkeypatch, compile_policy,
                                    "compile_policy"),
            "parse": _count_calls(monkeypatch, parse_profiles,
                                  "parse_profiles")}


def _ota_fleet(n=4, seed=5):
    config = FleetConfig(n_vehicles=n, seed=seed, mode="apparmor",
                         checkpoint_interval_epochs=2)
    fleet = Fleet(config, driver=ScriptedDriver()
                  .at(2, "veh001", "crash").at(6, "veh001", "clear"))
    fleet.stage_rollout(_bundle(1))
    return fleet


def _run_two_bundles(fleet, epochs=24):
    """Roll out bundle 1, then bundle 2 once bundle 1 is complete."""
    staged_second = False
    for _ in range(epochs):
        if (not staged_second
                and fleet.controller.state is RolloutState.COMPLETE):
            fleet.stage_rollout(_bundle(2, SECOND_POLICY))
            staged_second = True
        fleet.run_epoch()
    assert staged_second
    return fleet.report()


class TestCacheScope:
    def test_two_fresh_fleets_do_identical_work(self, counts):
        seen = []
        for _ in range(2):
            before = {key: len(calls) for key, calls in counts.items()}
            fleet = _ota_fleet()
            fingerprint = _run_two_bundles(fleet).fingerprint()
            seen.append(({key: len(calls) - before[key]
                          for key, calls in counts.items()}, fingerprint))
        assert seen[0] == seen[1]
        assert seen[0][0]["compile"] > 0 and seen[0][0]["parse"] > 0

    def test_each_bundle_text_compiles_once_per_fleet(self, monkeypatch):
        from repro.apparmor import policydb
        from repro.sack import sackfs
        compiled, parsed = [], []
        compile_policy = sackfs.compile_policy
        parse_profiles = policydb.parse_profiles
        monkeypatch.setattr(
            sackfs, "compile_policy", lambda policy, **kw:
            compiled.append(policy.name) or compile_policy(policy, **kw))
        monkeypatch.setattr(
            policydb, "parse_profiles", lambda text:
            parsed.append(text) or parse_profiles(text))
        fleet = _ota_fleet(n=6)
        _run_two_bundles(fleet)
        versions = {v.bundle_version for v in fleet.vehicles.values()}
        assert versions == {2}
        # Six vehicles booted on the default policy and took two bundles;
        # bundle 1 carries the boot text, so there are two distinct
        # policy texts and one profile text.
        assert compiled == ["ivi_default", "ivi_default_v2"]
        assert parsed == [IVI_APPARMOR_PROFILES]

    def test_one_vehicles_profile_edits_stay_its_own(self):
        fleet = _ota_fleet(n=3)
        fleet.run_epoch()
        first, second, third = (fleet.vehicles[vid].world
                                for vid in sorted(fleet.vehicles))

        def rules(world):
            db = world.apparmor.policy
            return {name: [(r.glob, r.perms.value, r.deny, r.origin)
                           for r in db.get(name).path_rules]
                    for name in db.profile_names()}

        others = rules(second), rules(third)
        db = first.apparmor.policy
        media = db.load_text(IVI_APPARMOR_PROFILES)[0]
        assert media.name == "media_app"
        media.add_rule(PathRule("/dev/car/door", FilePerm.WRITE))
        edited = db.get("nav_app").clone()
        edited.add_rule(PathRule("/var/secret/**", FilePerm.READ))
        db.replace_profile(edited)
        assert (rules(second), rules(third)) == others
        assert db.get("media_app").allows_file("/dev/car/door",
                                               FilePerm.WRITE)
        # A later load of the same text on another vehicle comes
        # from the shared parse, untouched by the edits above.
        fresh = third.apparmor.policy.load_text(IVI_APPARMOR_PROFILES)[0]
        assert not fresh.allows_file("/dev/car/door", FilePerm.WRITE)
        assert not third.apparmor.policy.get("nav_app").allows_file(
            "/var/secret/x", FilePerm.READ)

    def test_restored_vehicles_replay_identically(self):
        # A vehicle restored from its checkpoint reads its policy texts
        # through the same host cache; two runs must agree.
        prints = []
        for _ in range(2):
            fleet = _ota_fleet()
            fleet.force_crash("veh002", epoch=4)
            report = _run_two_bundles(fleet)
            assert report.resilience["restores"] >= 1
            prints.append(report.fingerprint())
        assert prints[0] == prints[1]


@pytest.fixture
def driving():
    """An AppArmor-bridged vehicle in ``driving`` with its bridged rules
    in force."""
    vehicle = FleetVehicle("veh000", 0, seed=1, mode="apparmor")
    bridge = vehicle.world.bridge
    bridge.ssm.process_event(SituationEvent(name="vehicle_started"))
    assert vehicle.situation == "driving"
    assert bridge.verify_consistency() == []
    return vehicle


def _live_profiles(vehicle):
    db = vehicle.world.apparmor.policy
    return {name: db.get(name) for name in db.profile_names()}


class TestAllOrNothingApply:
    def _assert_untouched(self, vehicle, ack, profiles, ssm):
        bridge = vehicle.world.bridge
        assert not ack.ok
        assert vehicle.apply_log[-1] == (ack.version, "apply_failed")
        assert vehicle.bundle_version is None
        assert bridge.ssm is ssm and vehicle.situation == "driving"
        assert _live_profiles(vehicle) == profiles
        assert bridge.verify_consistency() == []

    def test_invalid_policy_keeps_bridged_rules(self, driving):
        profiles, ssm = _live_profiles(driving), driving.world.bridge.ssm
        ack = driving.apply_bundle(_bundle(1, "policy broken"), KEY)
        assert "EINVAL" in ack.detail
        self._assert_untouched(driving, ack, profiles, ssm)

    def test_injected_policy_load_failure_keeps_bridged_rules(self,
                                                              driving):
        plan = FaultPlan()
        plan.arm(fp.POLICY_LOAD_FAIL, probability=1.0)
        driving.world.sackfs.attach_fault_plan(plan)
        profiles, ssm = _live_profiles(driving), driving.world.bridge.ssm
        ack = driving.apply_bundle(_bundle(1), KEY)
        assert plan.injected[fp.POLICY_LOAD_FAIL] == 1
        assert "EIO" in ack.detail
        self._assert_untouched(driving, ack, profiles, ssm)

    def test_profiles_a_failed_bundle_added_are_dropped(self, driving):
        extra = IVI_APPARMOR_PROFILES + (
            "\nprofile telematics /usr/bin/telematics {\n"
            "  /usr/bin/telematics rm,\n}\n")
        profiles, ssm = _live_profiles(driving), driving.world.bridge.ssm
        ack = driving.apply_bundle(_bundle(1, "policy broken", extra), KEY)
        self._assert_untouched(driving, ack, profiles, ssm)
        assert driving.world.apparmor.policy.get("telematics") is None

    def test_a_good_bundle_after_a_refused_one_applies(self, driving):
        driving.apply_bundle(_bundle(1, "policy broken"), KEY)
        ack = driving.apply_bundle(_bundle(2, SECOND_POLICY), KEY)
        assert ack.ok, ack.detail
        assert driving.bundle_version == 2
        assert driving.world.bridge.policy.name == "ivi_default_v2"
        assert driving.world.bridge.verify_consistency() == []
