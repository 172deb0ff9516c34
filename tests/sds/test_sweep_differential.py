"""Differential test of the SDS sweep without a fault plan.

An SDS with no fault plan samples every sensor in one pass, derives
sensor health on read and skips the detectors on a sweep that repeats
the previous one.  The oracle is the same vehicle with an empty
``FaultPlan()``: it takes the per-sensor path, tracks health per tick and
runs every detector on every sweep.  Over seeded drive cycles, V2X
alerts and bundle applies both must give identical events, samples,
health and counters.
"""

import random

import pytest

from repro.faults import points
from repro.faults.plan import FaultPlan
from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.bus import V2xMessage
from repro.fleet.vehicle import FleetVehicle, apply_driver_action
from repro.sds.service import SensorHealth
from repro.vehicle.ivi import DEFAULT_SACK_POLICY

KEY = b"sack-fleet-signing-key"

ACTIONS = ("start", "cruise", "brake", "crash", "clear", "stop_engine",
           "driver_leaves", "driver_returns")

#: Summary keys measured on the host clock, so never compared.
HOST_TIMED = ("mean_send_latency_us", "max_send_latency_us")


class Pair:
    """One vehicle on the no-plan sweep and its empty-plan oracle."""

    def __init__(self, mode="independent"):
        self.fast = FleetVehicle("veh000", 0, seed=1, mode=mode)
        self.oracle = FleetVehicle("veh000", 0, seed=1, mode=mode)
        self.oracle.world.sds.fault_plan = FaultPlan()
        self.signer = BundleSigner(KEY)
        self.version = 0

    def both(self, step):
        return step(self.fast), step(self.oracle)

    def tick(self):
        fast, oracle = self.both(lambda v: v.tick())
        assert fast == oracle
        self.check()
        return fast

    def act(self, action):
        self.both(lambda v: apply_driver_action(v, action))

    def alert(self, topic):
        message = V2xMessage(msg_id=1, topic=topic, origin="veh001",
                             position_km=0.0, sent_ns=0)
        self.both(lambda v: v.deliver(message))

    def apply(self):
        self.version += 1
        bundle = make_bundle(self.version, DEFAULT_SACK_POLICY,
                             signer=self.signer)
        fast, oracle = self.both(lambda v: v.apply_bundle(bundle, KEY))
        assert fast.ok and oracle.ok

    def check(self):
        fast, oracle = self.fast.world.sds, self.oracle.world.sds
        assert fast.last_samples == oracle.last_samples
        assert fast.health == oracle.health
        summary = {k: v for k, v in fast.stats.summary().items()
                   if k not in HOST_TIMED}
        assert summary == {k: v for k, v in oracle.stats.summary().items()
                           if k not in HOST_TIMED}
        assert self.fast.situation == self.oracle.situation
        assert self.fast.state_digest() == self.oracle.state_digest()


@pytest.mark.parametrize("seed", range(6))
def test_seeded_drive_cycle_matches_oracle(seed):
    rng = random.Random(seed)
    pair = Pair(mode="independent" if seed % 2 else "apparmor")
    events = []
    for _ in range(160):
        roll = rng.random()
        if roll < 0.12:
            pair.act(rng.choice(ACTIONS))
        elif roll < 0.16:
            pair.alert(rng.choice(("crash", "crash_cleared")))
        elif roll < 0.20:
            pair.apply()
        for _ in range(rng.randint(1, 4)):
            events.extend(pair.tick())
    assert events        # the cycle drove through situation changes


def test_bundle_apply_on_a_still_vehicle_re_emits():
    """A policy load while nothing moves: the sweeps before and after it
    are equal, yet the fresh SSM must learn the vehicle is unattended."""
    pair = Pair()
    pair.tick()
    pair.act("driver_leaves")
    for _ in range(3):
        pair.tick()
    assert pair.fast.situation == "parking_without_driver"
    before = pair.fast.world.sds.last_samples
    pair.apply()
    assert pair.fast.situation == "parking_with_driver"
    assert pair.tick() == ["driver_left"]
    assert pair.fast.world.sds.last_samples == before
    assert pair.fast.situation == "parking_without_driver"


def test_health_reads_as_tracked_per_tick():
    pair = Pair()
    pair.act("start")
    for _ in range(4):
        pair.tick()
    health = pair.fast.world.sds.health
    assert list(health) == [sensor.name
                            for sensor in pair.fast.world.sds.sensors]
    speed = pair.fast.world.sds.last_samples["speed_kmh"]
    assert health["speed_kmh"] == SensorHealth(last_good=speed)


def test_plan_attached_after_no_plan_sweeps_starts_from_tracked_health():
    """The per-sensor path reads last-known-good values the no-plan
    sweeps left behind: a dropout falls back to the last sample."""
    pair = Pair()
    pair.act("start")
    for _ in range(3):
        pair.tick()
    for vehicle in (pair.fast, pair.oracle):
        plan = FaultPlan()
        plan.arm(points.SDS_SENSOR_DROPOUT, nth_calls=(1,),
                 arg="speed_kmh")
        vehicle.world.sds.fault_plan = plan
    last = pair.fast.world.sds.last_samples["speed_kmh"]
    pair.tick()
    sds = pair.fast.world.sds
    assert sds.last_samples["speed_kmh"] == last
    assert sds.health["speed_kmh"].consecutive_failures == 1
