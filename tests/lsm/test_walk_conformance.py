"""Walk conformance: observation never changes a dispatch.

Every LSM dispatch — a full module walk, a cache-served allow, an int or
a void hook, observed or not — runs through one module loop.  This suite
replays the same seeded access trace (opens, reads, writes, ioctls and
fork+exec, across real drive-cycle transitions) under every observation
mode and asserts that verdicts and HookStats are identical in all of
them.  It also checks the observers against ground truth: every
``lsm:hook_dispatch`` emission and every latency record corresponds to
one real module call, so allows served from the AVC or the decision
table emit nothing.
"""

import random
from collections import Counter

import pytest

from repro.kernel import KernelError, OpenFlags
from repro.lsm import Hook
from repro.lsm.framework import HookStats
from repro.obs import LSM_HOOK_DISPATCH
from repro.vehicle.devices import IOCTL_SYMBOLS
from repro.vehicle.ivi import EnforcementConfig, build_ivi_world
from repro.vehicle.scenarios import crash_on_highway, urban_commute

APPS = ["media_app", "nav_app", "volume_service", "ignition_service",
        "rescue_daemon"]
DEVICES = ["door", "window", "audio", "engine", "speedometer"]
IOCTL_CMDS = sorted(IOCTL_SYMBOLS.values())
PER_PHASE = 40
SEED = 1313

MODES = ["none", "latency", "tracepoint", "spans", "avc_off", "dtable"]
CONFIGS = [EnforcementConfig.SACK_INDEPENDENT,
           EnforcementConfig.SACK_APPARMOR]


def _one_access(world, rng):
    kernel = world.kernel
    app = rng.choice(APPS)
    task = world.task(app)
    op = rng.choice(["read", "write", "ioctl", "exec"])
    path = f"/dev/car/{rng.choice(DEVICES)}"
    fd = None
    outcome = "ok"
    try:
        if op == "exec":
            # init launching an app: the exec is allowed, so the void
            # bprm_committed_creds hook runs too.
            child = kernel.sys_fork(kernel.procs.init)
            kernel.sys_execve(child, f"/usr/bin/{app}", comm=app)
            kernel.sys_exit(child)
        elif op == "read":
            fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
            kernel.sys_read(task, fd, 8)
        elif op == "write":
            fd = kernel.sys_open(task, path, OpenFlags.O_WRONLY)
            kernel.sys_write(task, fd, b"\x01")
        else:
            fd = kernel.sys_open(task, path, OpenFlags.O_RDONLY)
            kernel.sys_ioctl(task, fd, rng.choice(IOCTL_CMDS), 0)
    except KernelError as exc:
        outcome = f"err:{int(exc.errno)}"
    finally:
        if fd is not None:
            kernel.sys_close(task, fd)
    return app, op, path, outcome


def _count_module_calls(framework, real_calls):
    """Wrap every call-list entry so *real_calls* counts the module
    invocations that actually happen, keyed like HookStats."""
    def counted(key, method):
        def call(*args):
            real_calls[key] += 1
            return method(*args)
        return call

    for hook, entries in framework._hook_lists.items():
        framework._hook_lists[hook] = [
            (name, counted(f"{name}.{hook.value}", method))
            for name, method in entries]


def _replay(config, mode):
    world = build_ivi_world(config)
    framework = world.framework
    obs = world.kernel.obs
    framework.stats = HookStats()
    real_calls = Counter()
    _count_module_calls(framework, real_calls)
    emitted = Counter()
    hook_spans = []
    if mode == "latency":
        framework.enable_hook_latency()
    elif mode == "tracepoint":
        obs.tracepoints.attach(
            LSM_HOOK_DISPATCH,
            lambda _name, fields: emitted.update(
                [f"{fields['module']}.{fields['hook']}"]))
    elif mode == "spans":
        spans = obs.spans
        spans.enable()
        spans.trace_all_hooks()
        start_span = spans.start_span

        def recording_start_span(name, *args, **kwargs):
            if name.startswith("lsm."):
                hook_spans.append((name, kwargs.get("attributes", {})))
            return start_span(name, *args, **kwargs)
        spans.start_span = recording_start_span
    elif mode == "avc_off":
        framework.avc.enabled = False
    elif mode == "dtable":
        framework.dtable.enabled = True
        framework.rebuild_dtable()

    rng = random.Random(SEED)
    verdicts = []
    for phase in urban_commute() + crash_on_highway():
        if phase.on_enter is not None:
            phase.on_enter(world.dynamics)
        world.run_sds(ticks=4, dt_s=max(0.1, phase.duration_s / 4))
        verdicts.extend(_one_access(world, rng) for _ in range(PER_PHASE))

    latency = Counter()
    for labels, hist in obs.metrics.histograms_named(
            "lsm_hook_latency_ns").items():
        label = dict(labels)
        latency[f"{label['module']}.{label['hook']}"] += hist.count
    module = world.sack or world.bridge
    return {
        "verdicts": verdicts,
        "calls": dict(framework.stats.calls),
        "denials": dict(framework.stats.denials),
        "real_calls": real_calls,
        "emitted": emitted,
        "latency": latency,
        "transitions": module.ssm.transition_count,
        "cache_hits": framework.avc.core.hits + framework.dtable.hits,
        "avc_hits": framework.avc.core.hits,
        "hook_spans": hook_spans,
    }


@pytest.fixture(scope="module", params=CONFIGS, ids=lambda c: c.name)
def replays(request):
    runs = {mode: _replay(request.param, mode) for mode in MODES}
    runs["config"] = request.param
    return runs


def test_trace_exercises_every_dispatch_shape(replays):
    base = replays["none"]
    assert len(base["verdicts"]) >= 500
    assert base["transitions"] >= 3
    assert any(v[3] != "ok" for v in base["verdicts"])
    assert base["cache_hits"] > 100
    sites = {site.split(".", 1)[1] for site in base["calls"]}
    assert {Hook.FILE_OPEN.value, Hook.FILE_IOCTL.value,
            Hook.BPRM_CHECK_SECURITY.value, Hook.CAPABLE.value} <= sites
    if replays["config"] is EnforcementConfig.SACK_APPARMOR:
        assert Hook.BPRM_COMMITTED_CREDS.value in sites
    assert replays["dtable"]["cache_hits"] > 0
    assert replays["avc_off"]["cache_hits"] == 0


@pytest.mark.parametrize("mode", MODES[1:])
def test_mode_leaves_verdicts_and_hookstats_unchanged(replays, mode):
    base, run = replays["none"], replays[mode]
    assert run["verdicts"] == base["verdicts"]
    assert run["calls"] == base["calls"]
    assert run["denials"] == base["denials"]


def test_uncached_walk_records_every_module_call(replays):
    # With every cache off, HookStats counts exactly the real calls —
    # the ground truth the observer checks below lean on.
    run = replays["avc_off"]
    assert run["calls"] == dict(run["real_calls"])


def test_cached_allows_skip_modules_but_keep_hookstats(replays):
    base = replays["none"]
    assert sum(base["calls"].values()) > sum(base["real_calls"].values())


@pytest.mark.parametrize("mode,observed", [("tracepoint", "emitted"),
                                           ("latency", "latency")])
def test_observers_see_exactly_the_real_module_calls(replays, mode,
                                                     observed):
    run = replays[mode]
    assert run[observed] == run["real_calls"]
    assert run[observed] != Counter(run["calls"])


def test_unobserved_modes_emit_nothing(replays):
    for mode in ("none", "spans", "avc_off", "dtable"):
        assert not replays[mode]["emitted"]
        assert not replays[mode]["latency"]


def test_watched_hooks_span_int_dispatches_and_cache_hits(replays):
    run = replays["spans"]
    names = {name for name, _attrs in run["hook_spans"]}
    assert f"lsm.{Hook.FILE_OPEN.value}" in names
    # Void hooks take no span.
    assert f"lsm.{Hook.BPRM_COMMITTED_CREDS.value}" not in names
    # One span per cache-served allow, tagged with the serving cache.
    served = [attrs for _name, attrs in run["hook_spans"]
              if attrs.get("avc.hit")]
    assert len(served) == run["avc_hits"] > 0
