"""Fleet orchestration benchmarks: process-backend scaling and bus fan-out.

The process backend shards N vehicle kernels across a worker pool; the
run's fingerprint must stay bit-identical at every worker count.  Speed
is host time: each worker count runs ``REPS`` fresh fleets and keeps
the best epoch wall, reported as vehicle-epochs per host second.  No
speedup floor is asserted — it depends on the host's cores (a 2-core
host gives roughly 1.2-1.4x at 2 workers for 32 vehicles).  Run with

    pytest benchmarks/test_fleet.py --benchmark-json=BENCH_fleet.json

to emit the JSON artifact the CI job uploads; vehicle-epochs/s per
worker count and the bus fan-out latencies ride along in ``extra_info``.
"""

import time

from repro.fleet.bundle import BundleSigner, make_bundle
from repro.fleet.bus import V2xBus
from repro.fleet.orchestrator import Fleet, FleetConfig, ScriptedDriver
from repro.vehicle.ivi import DEFAULT_SACK_POLICY
from conftest import REPS, SCALE

#: Fleet size for the scaling run (divisible by 4 so shards balance).
FLEET_SIZE = max(8, 4 * round(4 * SCALE))

EPOCHS = 8

WORKER_COUNTS = (1, 2, 4)

#: Subscribers for the bus fan-out measurement.
FANOUT_SUBSCRIBERS = max(100, int(400 * SCALE))


def _run_fleet(workers):
    """One fresh process fleet: ``(host seconds for EPOCHS, report)``."""
    driver = ScriptedDriver().at(1, "veh001", "crash") \
                             .at(5, "veh001", "clear")
    config = FleetConfig(n_vehicles=FLEET_SIZE, seed=3, workers=workers,
                         backend="process")
    with Fleet(config, driver=driver) as fleet:
        fleet.stage_rollout(make_bundle(
            1, DEFAULT_SACK_POLICY,
            signer=BundleSigner(fleet.config.fleet_key)))
        start = time.perf_counter()
        for _ in range(EPOCHS):
            fleet.run_epoch()
        return time.perf_counter() - start, fleet.report()


def test_fleet_throughput_scaling(benchmark, show):
    """Host vehicle-epochs/s at 1/2/4 process workers, fingerprints
    identical."""
    best = {}
    prints = set()
    for workers in WORKER_COUNTS:
        runs = [_run_fleet(workers) for _ in range(max(1, REPS))]
        best[workers] = min(wall for wall, _ in runs)
        prints.update(report.fingerprint() for _, report in runs)
    assert len(prints) == 1, "worker count changed the outcome"
    vps = {w: FLEET_SIZE * EPOCHS / best[w] for w in WORKER_COUNTS}
    speedup = vps[4] / vps[1]

    benchmark.pedantic(lambda: _run_fleet(4), rounds=1, iterations=1)
    benchmark.extra_info["vehicles"] = FLEET_SIZE
    benchmark.extra_info["epochs"] = EPOCHS
    benchmark.extra_info["host_vehicle_epochs_per_second"] = {
        str(w): round(v, 1) for w, v in vps.items()}
    benchmark.extra_info["host_speedup_1_to_4"] = round(speedup, 2)

    lines = [f"process-backend fleet scaling ({FLEET_SIZE} vehicles, "
             f"{EPOCHS} epochs, best of {max(1, REPS)} fresh fleets, "
             f"host time)"]
    for w in WORKER_COUNTS:
        lines.append(f"  {w} worker(s): {vps[w]:>8.1f} vehicle-epochs/s "
                     f"(epoch wall {best[w] / EPOCHS * 1e3:.2f} ms)")
    lines.append(f"  1 -> 4 workers: {speedup:.2f}x")
    show("\n".join(lines))


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
