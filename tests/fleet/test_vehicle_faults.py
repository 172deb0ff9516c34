"""A fleet vehicle's own fault plan and its clock-driven watchdog.

The SACK staleness watchdog fires from the vehicle's kernel clock: a
live SDS keeps it fed, and a detached one leaves it to engage the
failsafe at its deadline, in a checkpointed copy as in the original.
``arm_vehicle_fault`` arms a rule on the vehicle's own plan, which the
world's SDS, SACKfs channel and bridge read only when the vehicle booted
with a plan, and which no fleet-level point is ever read from: arming a
point the plan cannot fire raises instead of leaving a rule that nothing
reads.
"""

import pytest

from repro.faults import points as fp
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.resilience import CheckpointStore
from repro.fleet.vehicle import FleetVehicle
from repro.kernel.clock import NSEC_PER_MSEC
from repro.obs import AUDIT_FAILSAFE


def _failsafes(vehicle):
    return vehicle.world.kernel.obs.audit.by_kind(AUDIT_FAILSAFE)


def _detach_and_expire(vehicle):
    """Detach the SDS and tick past the deadline; returns the deadline."""
    world = vehicle.world
    world.sds = None
    due = world.sackfs.watchdog.last_seen_ns + 2000 * NSEC_PER_MSEC + 1
    while world.kernel.clock.now_ns < due:
        assert not world.sackfs.watchdog.engagements
        vehicle.tick()
    return due


@pytest.mark.parametrize("mode", ["independent", "apparmor"])
def test_live_sds_never_engages_and_detached_one_does(mode):
    vehicle = FleetVehicle("veh000", 0, seed=1, mode=mode)
    for _ in range(500):          # 5 s of 10 ms polls
        vehicle.tick()
    assert vehicle.world.sackfs.watchdog.engagements == 0
    due = _detach_and_expire(vehicle)
    assert vehicle.situation == "emergency"
    [record] = _failsafes(vehicle)
    assert record.when_ns == due
    assert "stale for 2000ms (deadline 2000ms)" in record.detail


def test_restored_checkpoint_engages_on_its_own_clock():
    vehicle = FleetVehicle("veh000", 0, seed=1, mode="independent")
    for _ in range(50):
        vehicle.tick()
    store = CheckpointStore()
    store.take(vehicle, epoch=0)
    restored = store.materialize("veh000")
    digest = vehicle.state_digest()
    _detach_and_expire(restored)
    assert restored.situation == "emergency"
    assert restored.world.sackfs.watchdog.engagements == 1
    # The original's timer, SSM and audit trail are its own.
    assert vehicle.world.sds is not None
    assert vehicle.state_digest() == digest
    assert vehicle.world.sackfs.watchdog.engagements == 0
    assert not _failsafes(vehicle)
    assert vehicle.situation != "emergency"


def _fleet(mode="apparmor", intensity=0.0):
    return Fleet(FleetConfig(n_vehicles=3, seed=5, mode=mode,
                             vehicle_fault_intensity=intensity),
                 driver=ScriptedDriver())


def test_plan_less_vehicle_reaches_only_the_bundle_apply():
    fleet = _fleet()
    vehicle = fleet.host.vehicles[fleet.ids[0]]
    assert vehicle.fault_points() == [fp.FLEET_BUNDLE_APPLY_FAIL]
    for point in (fp.BRIDGE_RELOAD_FAIL, fp.SDS_SENSOR_DROPOUT,
                  fp.SACKFS_WRITE_EIO, fp.V2X_DELAY):
        with pytest.raises(ValueError) as err:
            fleet.arm_vehicle_fault(fleet.ids[0], point, probability=1.0)
        assert point in str(err.value)
        assert fp.FLEET_BUNDLE_APPLY_FAIL in str(err.value)
    assert vehicle.fault_plan is None
    fleet.arm_vehicle_fault(fleet.ids[0], fp.FLEET_BUNDLE_APPLY_FAIL,
                            probability=1.0, times=1)
    assert vehicle.fault_plan.rules


def test_booted_plan_reaches_the_world_but_not_the_fleet():
    fleet = _fleet(intensity=0.01)
    vid = fleet.ids[0]
    reachable = fleet.host.vehicles[vid].fault_points()
    assert fp.BRIDGE_RELOAD_FAIL in reachable
    assert fp.SDS_SENSOR_DROPOUT in reachable
    for point in (fp.V2X_DELAY, fp.V2X_PUBLISH_DROP, fp.FLEET_ACK_DROP,
                  fp.FLEET_VEHICLE_OFFLINE, fp.FLEET_VEHICLE_CRASH,
                  fp.FLEET_SHARD_STALL, fp.FLEET_CONTROL_TIMEOUT,
                  fp.SSM_LISTENER_FAIL):
        assert point not in reachable
        with pytest.raises(ValueError):
            fleet.arm_vehicle_fault(vid, point, probability=1.0)
    # An armed reachable point really fires.
    fleet.arm_vehicle_fault(vid, fp.SDS_SENSOR_DROPOUT, probability=1.0)
    fleet.run(epochs=3)
    assert fleet.host.vehicles[vid].fault_plan.injected[
        fp.SDS_SENSOR_DROPOUT] > 0


def test_independent_vehicle_has_no_bridge_to_fail():
    fleet = _fleet(mode="independent", intensity=0.01)
    with pytest.raises(ValueError):
        fleet.arm_vehicle_fault(fleet.ids[0], fp.BRIDGE_RELOAD_FAIL,
                                probability=1.0)

