"""E9 (ablation) — event-transport channels for design challenge C1.

The paper argues securityfs beats socket- and relay-based channels on
latency for user->kernel situation-event delivery.  We measure the three
channels: a direct SACKfs write, an AF_UNIX relay (SDS -> broker daemon ->
SACKfs), and a TCP relay.
"""

import pytest

from repro.bench import run_transport_ablation
from repro.kernel import SocketFamily
from repro.vehicle.ivi import EnforcementConfig, build_stack


def test_transport_comparison(benchmark, show):
    holder = {}

    def run():
        holder["out"] = run_transport_ablation(samples=1000)
        return holder["out"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    out = holder["out"]

    lines = ["Event transport ablation (per-event latency, best round)",
             f"  {'channel':>20} {'us/event':>10}"]
    for channel, us in out.items():
        lines.append(f"  {channel.removesuffix('_us'):>20} {us:>10.2f}")
    ratio_unix = out["af_unix_relay_us"] / out["sackfs_us"]
    ratio_tcp = out["tcp_relay_us"] / out["sackfs_us"]
    lines.append(f"  relay penalty: AF_UNIX {ratio_unix:.2f}x, "
                 f"TCP {ratio_tcp:.2f}x vs SACKfs")
    show("\n".join(lines))

    # Shape: the direct securityfs channel is the cheapest.
    assert out["sackfs_us"] < out["af_unix_relay_us"]
    assert out["sackfs_us"] < out["tcp_relay_us"]


def test_sackfs_channel(benchmark):
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    init = kernel.procs.init
    benchmark(lambda: kernel.write_file(
        init, "/sys/kernel/security/SACK/events",
        b"speed_high\n", create=False))


def test_af_unix_relay_channel(benchmark):
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    init = kernel.procs.init
    server = kernel.sys_socket(init, SocketFamily.AF_UNIX)
    kernel.sys_bind(init, server, "/run/relay.sock")
    kernel.sys_listen(init, server)
    client = kernel.sys_socket(init, SocketFamily.AF_UNIX)
    kernel.sys_connect(init, client, "/run/relay.sock")
    conn = kernel.sys_accept(init, server)

    def relay_once():
        kernel.sys_send(init, client, b"speed_high\n")
        data = kernel.sys_recv(init, conn, 64)
        kernel.write_file(init, "/sys/kernel/security/SACK/events",
                          data, create=False)

    benchmark(relay_once)
