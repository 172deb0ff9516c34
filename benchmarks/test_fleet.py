"""Fleet V2X bus benchmark: the cost of one publish's fan-out.

Fleet epoch speed is not timed here: hostbench's ``fleet-ota`` workload
(``hostbench/run.py``) is the one fleet-speed benchmark.  Run with

    pytest benchmarks/test_fleet.py --benchmark-json=BENCH_fleet.json

to emit the JSON artifact the CI job uploads; the fan-out size and the
copies delivered ride along in ``extra_info``.
"""

from repro.fleet.bus import V2xBus
from conftest import SCALE

#: Subscribers for the bus fan-out measurement.
FANOUT_SUBSCRIBERS = max(100, int(400 * SCALE))


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
