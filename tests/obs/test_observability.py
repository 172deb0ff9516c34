"""Integration tests: the hub wired through kernel, LSM, and SACK layers.

Covers the acceptance-critical behaviours: one AVC record per denied
access carrying the denying module and the situation state, metrics that
cannot disagree with the pseudo-file counters, per-hook latency
histograms, and deterministic event sequence numbers.
"""

import json

import pytest

from repro.kernel import KernelError, OpenFlags, user_credentials
from repro.lsm import (HookLatency, HookStats, LsmModule, boot_kernel,
                       hook_latency_summary)
from repro.obs import AUDIT_AVC, AUDIT_POLICY_LOAD, AUDIT_STATE_TRANSITION
from repro.sack import SackFs, SackLsm
from repro.vehicle import DOOR_UNLOCK, EnforcementConfig, build_ivi_world


class Watcher(LsmModule):
    """A module that implements file hooks (so their call lists are
    non-empty) without restricting anything."""

    name = "watcher"

    def file_open(self, task, file) -> int:
        return 0

    def file_permission(self, task, file, mask) -> int:
        return 0

POLICY = """
policy obs_test;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions {
  BASE;
}
state_per {
  normal: BASE;
  emergency: BASE;
}
per_rules {
  BASE {
    allow read /dev/car/**;
  }
}
guard /dev/car/**;
"""

SDS_UID = 990


def make_world():
    sack = SackLsm()
    kernel, fw = boot_kernel([sack])
    sackfs = SackFs(kernel, sack, authorized_event_uids={SDS_UID})
    kernel.write_file(kernel.procs.init,
                      "/sys/kernel/security/SACK/policy",
                      POLICY.encode(), create=False)
    return kernel, fw, sack, sackfs


def sds_task(kernel):
    task = kernel.sys_fork(kernel.procs.init)
    task.comm = "sds"
    task.cred = user_credentials(SDS_UID)
    return task


class TestSyscallInstrumentation:
    def test_latency_histograms_appear(self):
        kernel, _ = boot_kernel()
        kernel.instrument_syscalls()
        kernel.sys_getpid(kernel.procs.init)
        hists = kernel.obs.metrics.histograms_named("syscall_latency_ns")
        getpid = hists[(("name", "getpid"),)]
        assert getpid.count == 1

    def test_uninstrument_restores_methods(self):
        kernel, _ = boot_kernel()
        original = kernel.sys_getpid
        kernel.instrument_syscalls()
        assert kernel.sys_getpid is not original
        kernel.uninstrument_syscalls()
        assert kernel.sys_getpid == original

    def test_errno_flows_to_sys_exit_tracepoint(self):
        kernel, _ = boot_kernel()
        kernel.instrument_syscalls()
        exits = []
        kernel.obs.tracepoints.attach(
            "syscalls:sys_exit", lambda n, f: exits.append(f))
        with pytest.raises(KernelError):
            kernel.sys_open(kernel.procs.init, "/no/such/file",
                            OpenFlags.O_RDONLY)
        failed = [f for f in exits if f["name"] == "open"]
        assert failed and failed[0]["errno"] != 0


class TestHookLatency:
    def test_summary_has_percentiles(self):
        kernel, fw = boot_kernel([Watcher()])
        HookLatency().attach(kernel.obs)
        init = kernel.procs.init
        for i in range(10):
            kernel.write_file(init, f"/tmp/f{i}", b"x")
            kernel.read_file(init, f"/tmp/f{i}")
        summary = hook_latency_summary(kernel.obs.metrics)
        assert "file_open" in summary
        row = summary["file_open"]
        assert row["count"] >= 1
        assert row["p50_ns"] > 0 and row["p99_ns"] >= row["p50_ns"]

    def test_no_probe_no_histograms(self):
        kernel, fw = boot_kernel([Watcher()])
        kernel.write_file(kernel.procs.init, "/tmp/f", b"x")
        assert hook_latency_summary(kernel.obs.metrics) == {}

    def test_exemplar_is_the_walks_own_hook_span(self):
        kernel, fw = boot_kernel([Watcher()])
        HookLatency().attach(kernel.obs)
        spans = kernel.obs.spans
        spans.enable()
        spans.keep_empty_roots = True
        init = kernel.procs.init
        kernel.write_file(init, "/tmp/f", b"x")
        # An unwatched walk leaves no exemplar, also while another
        # stage's span is open around it.
        outer = spans.start_span("sds.send", stage="sds")
        kernel.read_file(init, "/tmp/f")
        spans.end_span(outer)
        hist = kernel.obs.metrics.histograms_named("lsm_hook_latency_ns")[
            (("hook", "file_open"), ("module", "watcher"))]
        assert hist.count == 2
        assert not hist.exemplars

        spans.trace_all_hooks()
        kernel.read_file(init, "/tmp/f")
        hook_span = [root for root in spans.roots()
                     if root.name == "lsm.file_open"][-1]
        assert hist.count == 3
        [(trace_id, value)] = hist.exemplars.values()
        assert trace_id == hook_span.trace_id != outer.trace_id
        assert f'# {{trace_id="{trace_id}"}} {value:g}' in \
            kernel.obs.metrics.to_prometheus()

    def test_exemplars_name_only_kept_traces(self):
        kernel, _, _, _ = make_world()
        HookLatency().attach(kernel.obs)
        spans = kernel.obs.spans
        spans.enable()
        spans.trace_all_hooks()
        init = kernel.procs.init

        def exemplar_traces():
            return {trace_id for hist in kernel.obs.metrics
                    .histograms_named("lsm_hook_latency_ns").values()
                    for trace_id, _ in hist.exemplars.values()}

        def kept_traces():
            return {root.trace_id for root in spans.roots()}

        # With no transition every hook span is childless and
        # link-less, so the tracer discards it: no exemplar may name it.
        kernel.write_file(init, "/tmp/f", b"x")
        kernel.read_file(init, "/tmp/f")
        assert spans.discarded > 0
        assert exemplar_traces() <= kept_traces()

        kernel.write_file(sds_task(kernel),
                          "/sys/kernel/security/SACK/events",
                          b"crash_detected\n", create=False)
        kernel.read_file(init, "/tmp/f")
        linked = {root.trace_id for root in spans.roots()
                  if root.name.startswith("lsm.") and root.links}
        assert linked
        assert exemplar_traces() & linked
        assert exemplar_traces() <= kept_traces()


class TestDenialAudit:
    def test_one_avc_record_per_denied_access(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        obs = world.kernel.obs
        outcomes = []

        def attempt(app):
            before = len(obs.audit.by_kind(AUDIT_AVC))
            try:
                world.device_ioctl(app, "door", DOOR_UNLOCK)
                outcomes.append("ALLOWED")
            except KernelError:
                outcomes.append("DENIED")
            return len(obs.audit.by_kind(AUDIT_AVC)) - before

        # E6 scenario (Fig. 4): unlock doors only in emergencies.
        assert attempt("rescue_daemon") == 1          # parked: denied
        world.drive_to_speed(60)
        assert attempt("rescue_daemon") == 1          # driving: denied
        world.trigger_crash()
        assert attempt("rescue_daemon") == 0          # emergency: allowed
        assert attempt("media_app") == 1              # emergency: denied
        world.clear_emergency()
        assert attempt("rescue_daemon") == 1          # cleared: denied
        assert outcomes == ["DENIED", "DENIED", "ALLOWED", "DENIED",
                            "DENIED"]

    def test_avc_names_module_and_situation(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        obs = world.kernel.obs
        world.trigger_crash()
        with pytest.raises(KernelError):
            world.device_ioctl("media_app", "door", DOOR_UNLOCK)
        record = obs.audit.by_kind(AUDIT_AVC)[-1]
        assert record.module == "sack"
        assert record.situation == "emergency"
        assert record.comm == "media_app"
        assert record.path == "/dev/car/door"
        assert record.hook == "file_ioctl"

    def test_bridge_denials_audited_with_situation(self):
        world = build_ivi_world(EnforcementConfig.SACK_APPARMOR)
        obs = world.kernel.obs
        with pytest.raises(KernelError):
            world.device_ioctl("media_app", "door", DOOR_UNLOCK)
        record = obs.audit.by_kind(AUDIT_AVC)[-1]
        assert record.module == "apparmor"
        assert record.situation == world.situation

    def test_audit_disabled_suppresses_records(self):
        world = build_ivi_world(EnforcementConfig.SACK_INDEPENDENT)
        obs = world.kernel.obs
        obs.audit.disable()
        with pytest.raises(KernelError):
            world.device_ioctl("media_app", "door", DOOR_UNLOCK)
        assert obs.audit.by_kind(AUDIT_AVC) == []
        # The denial counter still counts (metrics are not audit).
        counters = {c["name"] for c in obs.metrics.to_dict()["counters"]}
        assert "lsm_denials_total" in counters


class TestTransitionObservability:
    def test_transition_latency_audit_and_gauges(self):
        kernel, _, sack, sackfs = make_world()
        obs = kernel.obs
        task = sds_task(kernel)
        kernel.write_file(task, "/sys/kernel/security/SACK/events",
                          b"crash_detected\n", create=False)
        hist = obs.metrics.histogram("sack_transition_latency_ns")
        assert hist.count == 1
        assert hist.max > 0
        transitions = obs.audit.by_kind(AUDIT_STATE_TRANSITION)
        assert len(transitions) == 1
        assert transitions[0].situation == "emergency"
        assert "event=crash_detected" in transitions[0].detail

    def test_policy_load_observed(self):
        kernel, _, sack, sackfs = make_world()
        obs = kernel.obs
        loads = obs.audit.by_kind(AUDIT_POLICY_LOAD)
        assert len(loads) == 1
        assert "backend=independent" in loads[0].detail
        data = obs.metrics.to_dict()
        gauges = {g["name"]: g for g in data["gauges"]
                  if not g["labels"]}
        assert gauges["sack_policy_states"]["value"] == 2
        hists = obs.metrics.histograms_named("sack_policy_load_ns")
        assert sum(h.count for h in hists.values()) == 1


class TestStatsMetricsConsistency:
    def test_sackfs_and_ssm_counters_single_source(self):
        kernel, _, sack, sackfs = make_world()
        obs = kernel.obs
        task = sds_task(kernel)
        events_file = "/sys/kernel/security/SACK/events"
        kernel.write_file(task, events_file, b"crash_detected\n",
                          create=False)
        kernel.write_file(task, events_file, b"unknown_event\n",
                          create=False)
        with pytest.raises(KernelError):
            kernel.write_file(task, events_file, b"bad/name\n",
                              create=False)

        stats_text = kernel.read_file(
            kernel.procs.init, "/sys/kernel/security/SACK/stats").decode()
        stats = dict(line.split() for line in stats_text.splitlines())
        exported = {c["name"]: c["value"]
                    for c in obs.metrics.to_dict()["counters"]
                    if not c["labels"]}
        assert exported["sackfs_events_received_total"] == \
            int(stats["events_received"])
        assert exported["sackfs_events_accepted_total"] == \
            int(stats["events_accepted"])
        assert exported["sackfs_events_rejected_total"] == \
            int(stats["events_rejected"])
        assert exported["sack_ssm_events_processed_total"] == \
            int(stats["ssm_events_processed"])
        assert exported["sack_ssm_events_ignored_total"] == \
            int(stats["ssm_events_ignored"])
        assert exported["sack_ssm_transitions_total"] == \
            int(stats["ssm_transitions"])

    def test_hookstats_exported_via_collector(self):
        kernel, fw = boot_kernel([Watcher()])
        stats = HookStats().attach(kernel.obs)
        kernel.write_file(kernel.procs.init, "/tmp/f", b"x")
        kernel.read_file(kernel.procs.init, "/tmp/f")
        prom = kernel.obs.metrics.to_prometheus()
        assert 'lsm_hook_calls_total{site="watcher.file_open"}' in prom
        # The export value equals the live HookStats value, by identity.
        value = stats.calls["watcher.file_open"]
        assert f'site="watcher.file_open"}} {value}' in prom


class TestEventSequenceDeterminism:
    def test_two_kernels_assign_identical_sequences(self):
        writes = [b"crash_detected severity=1\n",
                  b"emergency_cleared\ncrash_detected\n",
                  b"unknown_event\n"]

        def run():
            kernel, _, sack, sackfs = make_world()
            task = sds_task(kernel)
            for buf in writes:
                kernel.write_file(task, "/sys/kernel/security/SACK/events",
                                  buf, create=False)
            return [(t.event.name, t.event.seq)
                    for t in sack.ssm.history]

        first, second = run(), run()
        assert first == second
        assert [seq for _, seq in first] == sorted(
            seq for _, seq in first)

    def test_sackfs_audit_file_renders_ring(self):
        kernel, _, sack, sackfs = make_world()
        task = sds_task(kernel)
        kernel.write_file(task, "/sys/kernel/security/SACK/events",
                          b"crash_detected\n", create=False)
        text = kernel.read_file(kernel.procs.init,
                                "/sys/kernel/security/SACK/audit").decode()
        assert "type=SACK_STATE" in text
        assert "type=MAC_POLICY_LOAD" in text
