"""A checkpoint or restored vehicle is a world of its own.

A fleet checkpoint is a deep copy of a vehicle.  Nothing in the copy may
still act on the original: a policy written to the copy's
``SACK/policy`` must land in the copy's kernel, so a vehicle restored
after a crash enforces the bundles it acknowledges, and its replayed
epochs digest like the wreck's (I10).
"""

import copy

import pytest

from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.orchestrator import Fleet, FleetConfig
from repro.vehicle.ivi import (DEFAULT_SACK_POLICY, SACK_MODES,
                               build_ivi_world)

KEY = b"sack-fleet-signing-key"

V2_POLICY = DEFAULT_SACK_POLICY.replace("policy ivi_default;",
                                        "policy ivi_v2;")


def _bundle(version, policy_text):
    return make_bundle(version, policy_text, signer=BundleSigner(KEY))


def _enforced(vehicle):
    return vehicle.world.module.policy.name


@pytest.mark.parametrize("mode", sorted(SACK_MODES))
def test_policy_written_to_a_copy_stays_in_the_copy(mode):
    world = build_ivi_world(SACK_MODES[mode])
    clone = copy.deepcopy(world)
    clone.load_policy(V2_POLICY)
    assert clone.module.policy.name == "ivi_v2"
    assert world.module.policy.name == "ivi_default"


@pytest.mark.parametrize("mode", sorted(SACK_MODES))
def test_restored_vehicle_enforces_the_bundle_it_acknowledges(mode):
    fleet = Fleet(FleetConfig(n_vehicles=8, seed=1, mode=mode))
    fleet.force_crash("veh001", 2)
    fleet.run(4)
    assert fleet.supervisor.status["veh001"].restores
    fleet.stage_rollout(_bundle(2, V2_POLICY))
    result = fleet.run(20)
    assert result.ok, result.report.violations
    veh001 = fleet.vehicles["veh001"]
    assert veh001.bundle_version == 2
    assert _enforced(veh001) == "ivi_v2"


@pytest.mark.parametrize("mode", sorted(SACK_MODES))
@pytest.mark.parametrize("seed", [1, 3, 7])
def test_crash_during_rollout_replays_like_the_wreck(seed, mode):
    fleet = Fleet(FleetConfig(n_vehicles=8, seed=seed, mode=mode))
    fleet.stage_rollout(_bundle(1, DEFAULT_SACK_POLICY))
    fleet.force_crash("veh001", 5)
    report = fleet.run(12).report
    assert report.resilience["i10_checked"] == 1
    assert not [v for v in report.violations if "I10" in v]
