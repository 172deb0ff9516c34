"""A fleet vehicle's own fault plan and its once-per-tick watchdog check.

A vehicle tick runs the SDS sweep, which checks the SACK staleness
watchdog at the tick's virtual time; a second check at the same instant
can never fire, so a tick makes exactly one.  ``arm_vehicle_fault`` arms
a rule on the vehicle's own plan, which the world's SDS, SACKfs channel
and bridge read only when the vehicle booted with a plan, and which no
fleet-level point is ever read from: arming a point the plan cannot
fire raises instead of leaving a rule that nothing reads.
"""

import pytest

from repro.faults import points as fp
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.fleet.vehicle import FleetVehicle


@pytest.mark.parametrize("mode", ["independent", "apparmor"])
def test_one_watchdog_check_per_tick(mode):
    vehicle = FleetVehicle("veh000", 0, seed=1, mode=mode)
    watchdog = vehicle.world.sackfs.watchdog
    assert watchdog is not None
    assert watchdog.checks == 0
    for _ in range(25):
        vehicle.tick()
    assert watchdog.checks == 25


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

