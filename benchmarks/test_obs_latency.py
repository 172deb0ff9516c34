"""E12 — observability: per-hook latency breakdown and tracing overhead.

Two questions the paper's Table II cannot answer on its own:

1. *Where* does the security-stack time go?  ``run_hook_latency_breakdown``
   runs the LMBench workload with per-hook latency histograms enabled and
   reports count/mean/p50/p99/max per hook per configuration.  The full
   breakdown is attached to the pytest-benchmark JSON via ``extra_info``,
   so ``--benchmark-json`` output carries the histogram summaries.

2. *What* does observability cost when it is off?  Tracepoints with no
   probes attached and a disabled audit ring must stay off the hot path —
   the detached/attached pair below bounds that overhead directly.
"""

from repro.bench import TABLE2_STACKS, run_hook_latency_breakdown
from repro.kernel import OpenFlags
from repro.lsm import HookLatency, hook_latency_summary
from repro.vehicle.ivi import EnforcementConfig, build_stack
from conftest import SCALE


def test_hook_latency_breakdown(benchmark, show):
    """Per-hook latency histograms for every Table II configuration."""
    holder = {}

    def run():
        holder["breakdown"] = run_hook_latency_breakdown(scale=SCALE)
        return holder["breakdown"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    breakdown = holder["breakdown"]

    lines = ["Per-hook latency under the LMBench workload"]
    for config, hooks in breakdown.items():
        lines.append(f"  {config}:")
        for hook, row in sorted(hooks.items(),
                                key=lambda kv: kv[1]["count"],
                                reverse=True):
            lines.append(f"    {hook:<22} n={int(row['count']):>8} "
                         f"mean {row['mean_ns']:>8.0f} ns  "
                         f"p50 {row['p50_ns']:>8.0f} ns  "
                         f"p99 {row['p99_ns']:>8.0f} ns")
    show("\n".join(lines))

    # The breakdown rides along in the benchmark JSON output.
    benchmark.extra_info["hook_latency"] = breakdown

    # Shape: every security-enabled config saw file hooks fire, and each
    # summary row carries the percentile fields the JSON consumers expect.
    for config in TABLE2_STACKS:
        assert breakdown[config.value], f"no hooks recorded for {config}"
        for row in breakdown[config.value].values():
            assert row["count"] > 0
            # p50/p99 are geometric-bucket upper bounds, so p99 may sit
            # just above the observed max — only ordering is guaranteed.
            assert row["p50_ns"] <= row["p99_ns"]
            assert row["mean_ns"] <= row["max_ns"]
    assert "file_open" in breakdown["sack-independent"]


def _open_close_loop(kernel, task, path, n=2000):
    for _ in range(n):
        fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
        kernel.sys_close(task, fd)


def test_obs_detached_overhead(benchmark):
    """Hot path with tracepoints detached and audit disabled (default)."""
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    kernel.obs.audit.enabled = False
    task = kernel.procs.init
    kernel.vfs.create_file("/tmp/obs_probe")
    benchmark(lambda: _open_close_loop(kernel, task, "/tmp/obs_probe"))


def test_obs_enabled_overhead(benchmark):
    """Same loop with every tracepoint recording and latency histograms
    on — the price of full observability, for comparison."""
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    kernel.obs.enable_all_recording()
    HookLatency().attach(kernel.obs)
    task = kernel.procs.init
    kernel.vfs.create_file("/tmp/obs_probe")
    benchmark(lambda: _open_close_loop(kernel, task, "/tmp/obs_probe"))
    assert hook_latency_summary(kernel.obs.metrics)["file_open"]["count"] > 0


def test_spans_disabled_overhead(benchmark):
    """Hot path with the span tracer constructed but disabled.

    The dispatch core pays one attribute load + flag test per call; this
    must stay within noise of :func:`test_obs_detached_overhead` (the
    acceptance bound is <5% regression vs. the no-span baseline).
    """
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    kernel.obs.audit.enabled = False
    assert not kernel.obs.spans.enabled
    assert not kernel.obs.spans.watch_hooks
    task = kernel.procs.init
    kernel.vfs.create_file("/tmp/obs_probe")
    benchmark(lambda: _open_close_loop(kernel, task, "/tmp/obs_probe"))


def test_spans_enabled_overhead(benchmark):
    """Same loop with tracing on and the hook link-window permanently
    armed — every dispatch takes the spanned path and records a root hook
    span.  The worst case, for comparison against the disabled cost."""
    world = build_stack(EnforcementConfig.SACK_INDEPENDENT)
    kernel = world.kernel
    spans = kernel.obs.spans
    spans.enable()
    spans.trace_all_hooks()
    task = kernel.procs.init
    kernel.vfs.create_file("/tmp/obs_probe")
    benchmark(lambda: _open_close_loop(kernel, task, "/tmp/obs_probe"))
