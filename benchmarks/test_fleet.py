"""Fleet orchestration benchmarks: epoch throughput and bus fan-out.

Speed is host time: ``REPS`` fresh fleets run the same seeded workload
(a crash that clears, plus a staged rollout) and the best epoch wall is
reported as vehicle-epochs per host second; every run must fingerprint
identically.  Run with

    pytest benchmarks/test_fleet.py --benchmark-json=BENCH_fleet.json

to emit the JSON artifact the CI job uploads; vehicle-epochs/s and the
bus fan-out latencies ride along in ``extra_info``.
"""

import time

from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.bus import V2xBus
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.vehicle.ivi import DEFAULT_SACK_POLICY
from conftest import REPS, SCALE

#: Fleet size for the throughput run.
FLEET_SIZE = max(8, 4 * round(4 * SCALE))

EPOCHS = 8

#: Subscribers for the bus fan-out measurement.
FANOUT_SUBSCRIBERS = max(100, int(400 * SCALE))


def _run_fleet():
    """One fresh fleet: ``(host seconds for EPOCHS, report)``."""
    driver = ScriptedDriver().at(1, "veh001", "crash") \
                             .at(5, "veh001", "clear")
    fleet = Fleet(FleetConfig(n_vehicles=FLEET_SIZE, seed=3),
                  driver=driver)
    fleet.stage_rollout(make_bundle(
        1, DEFAULT_SACK_POLICY,
        signer=BundleSigner(fleet.config.fleet_key)))
    start = time.perf_counter()
    for _ in range(EPOCHS):
        fleet.run_epoch()
    return time.perf_counter() - start, fleet.report()


def test_fleet_throughput(benchmark, show):
    """Host vehicle-epochs/s, best of fresh fleets that all
    fingerprint identically."""
    runs = [_run_fleet() for _ in range(max(2, REPS))]
    best = min(wall for wall, _ in runs)
    prints = {report.fingerprint() for _, report in runs}
    assert len(prints) == 1, "a rerun changed the outcome"
    vps = FLEET_SIZE * EPOCHS / best

    benchmark.pedantic(_run_fleet, rounds=1, iterations=1)
    benchmark.extra_info["vehicles"] = FLEET_SIZE
    benchmark.extra_info["epochs"] = EPOCHS
    benchmark.extra_info["host_vehicle_epochs_per_second"] = round(vps, 1)

    show(f"fleet throughput ({FLEET_SIZE} vehicles, {EPOCHS} epochs, "
         f"best of {len(runs)} fresh fleets, host time): "
         f"{vps:.1f} vehicle-epochs/s "
         f"(epoch wall {best / EPOCHS * 1e3:.2f} ms)")


def test_bus_fanout_latency(benchmark, show):
    """Publishing one event to a dense platoon: cost per delivered copy."""
    def fanout():
        bus = V2xBus(seed=11, range_km=10_000.0)
        positions = {}
        for i in range(FANOUT_SUBSCRIBERS):
            vid = f"veh{i:04d}"
            bus.subscribe(vid, ["crash"])
            positions[vid] = i * 0.001
        bus.publish("crash", "veh0000", 0.0, 0, positions=positions)
        delivered = bus.deliver_due(10**12)
        assert len(delivered) == FANOUT_SUBSCRIBERS - 1
        return bus

    bus = benchmark(fanout)
    latencies = [r for r in bus.tail(FANOUT_SUBSCRIBERS)
                 if r.action == "delivered"]
    benchmark.extra_info["subscribers"] = FANOUT_SUBSCRIBERS
    benchmark.extra_info["copies_delivered"] = \
        bus.stats["copies_delivered"]
    show(f"V2X fan-out: 1 publish -> {bus.stats['copies_delivered']} "
         f"copies delivered ({len(latencies)} tail records)")
