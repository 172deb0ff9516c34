"""Tests for the /sys/kernel/tracing pseudo-file surface."""

import json

import pytest

from repro.kernel import Errno, KernelError
from repro.lsm import boot_kernel
from repro.obs import SSM_TRANSITION, SYS_ENTER, TRACEFS_ROOT, mount_tracefs


@pytest.fixture
def world():
    kernel, _ = boot_kernel()
    tracefs = mount_tracefs(kernel)
    return kernel, kernel.procs.init, tracefs


def read(kernel, task, rel):
    return kernel.read_file(task, f"{TRACEFS_ROOT}/{rel}").decode()


def write(kernel, task, rel, text):
    kernel.write_file(task, f"{TRACEFS_ROOT}/{rel}", text.encode(),
                      create=False)


class TestLayout:
    def test_available_events_lists_catalogue(self, world):
        kernel, task, _ = world
        listing = read(kernel, task, "available_events").splitlines()
        assert SYS_ENTER in listing
        assert SSM_TRANSITION in listing
        assert listing == sorted(listing)

    def test_per_event_control_files_exist(self, world):
        kernel, task, _ = world
        assert read(kernel, task,
                    "events/sack/ssm_transition/enable") == "0\n"
        fmt = read(kernel, task, "events/sack/ssm_transition/format")
        assert "name: ssm_transition" in fmt
        assert "to_state" in fmt


class TestTracingOn:
    def test_defaults_on(self, world):
        kernel, task, _ = world
        assert read(kernel, task, "tracing_on") == "1\n"

    def test_toggle(self, world):
        kernel, task, _ = world
        write(kernel, task, "tracing_on", "0\n")
        assert not kernel.obs.tracing_on
        write(kernel, task, "tracing_on", "1")
        assert kernel.obs.tracing_on

    def test_garbage_rejected(self, world):
        kernel, task, _ = world
        with pytest.raises(KernelError) as err:
            write(kernel, task, "tracing_on", "maybe")
        assert err.value.errno == Errno.EINVAL

    def test_off_gates_recording(self, world):
        kernel, task, _ = world
        kernel.obs.enable_recording(SSM_TRANSITION)
        write(kernel, task, "tracing_on", "0")
        kernel.obs.tracepoints.get(SSM_TRANSITION).emit(
            event="e", from_state="a", to_state="b", at_ns=0, latency_ns=0)
        assert len(kernel.obs.trace_buffer) == 0


class TestEventEnable:
    def test_enable_records_firings(self, world):
        kernel, task, _ = world
        write(kernel, task, "events/sack/ssm_transition/enable", "1")
        assert read(kernel, task,
                    "events/sack/ssm_transition/enable") == "1\n"
        kernel.obs.tracepoints.get(SSM_TRANSITION).emit(
            event="crash", from_state="a", to_state="b", at_ns=1,
            latency_ns=2)
        trace = read(kernel, task, "trace")
        assert "sack:ssm_transition" in trace
        assert "to_state=b" in trace

    def test_disable_detaches(self, world):
        kernel, task, _ = world
        write(kernel, task, "events/sack/ssm_transition/enable", "1")
        write(kernel, task, "events/sack/ssm_transition/enable", "0")
        assert not kernel.obs.recording_enabled(SSM_TRANSITION)

    def test_trace_header(self, world):
        kernel, task, _ = world
        trace = read(kernel, task, "trace")
        assert trace.startswith("# tracer: nop")
        assert "entries: 0" in trace


class TestMetricsFiles:
    def test_metrics_json_parses(self, world):
        kernel, task, _ = world
        kernel.obs.metrics.counter("demo_total").inc()
        data = json.loads(read(kernel, task, "metrics"))
        assert {"name": "demo_total", "labels": {}, "value": 1} \
            in data["counters"]

    def test_metrics_prom(self, world):
        kernel, task, _ = world
        kernel.obs.metrics.counter("demo_total").inc()
        assert "demo_total 1" in read(kernel, task, "metrics_prom")
