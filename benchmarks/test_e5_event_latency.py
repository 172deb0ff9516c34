"""E5 — situation awareness latency (§IV-B).

The paper measures the securityfs-based user/kernel event channel with
four situation events: average latency ~5.4 µs with 100% delivery
accuracy.  Absolute numbers here are simulator numbers; the reproduction
targets are (i) microsecond-order latency, (ii) 100% accuracy, and
(iii) per-event-type uniformity.
"""

import pytest

from repro.bench import LATENCY_EVENTS, run_event_latency
from repro.vehicle.ivi import EnforcementConfig, build_stack


def test_event_latency_table(benchmark, show):
    holder = {}

    def run():
        holder["out"] = run_event_latency(samples_per_event=300)
        return holder["out"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    out = holder["out"]

    lines = ["Situation awareness latency via SACKfs (per event type)",
             f"  {'event':>20} {'mean us':>9} {'p50 us':>9} "
             f"{'p99 us':>9} {'accuracy':>9}"]
    for name in LATENCY_EVENTS:
        m = out[name]
        lines.append(f"  {name:>20} {m['mean_us']:>9.2f} "
                     f"{m['p50_us']:>9.2f} {m['p99_us']:>9.2f} "
                     f"{m['accuracy_pct']:>8.1f}%")
    mean_all = sum(out[n]["mean_us"] for n in LATENCY_EVENTS) / 4
    lines.append(f"  overall mean latency: {mean_all:.2f} us "
                 f"(paper: ~5.4 us on bare metal)")
    show("\n".join(lines))

    # Reproduction targets.
    assert all(out[n]["accuracy_pct"] == 100.0 for n in LATENCY_EVENTS)
    assert mean_all < 1000.0  # microsecond order, not milliseconds


def test_single_event_write(benchmark):
    """The raw SACKfs event write as a pytest-benchmark metric."""
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    init = kernel.procs.init

    benchmark(lambda: kernel.write_file(
        init, "/sys/kernel/security/SACK/events",
        b"vehicle_started\n", create=False))
    assert world.sack.ssm.events_processed > 0
