"""tracefs: the ``/sys/kernel/tracing`` analog for the simulated kernel.

Mirrors the ftrace control surface:

``tracing_on``
    Read/write ``0``/``1``; gates whether enabled events reach the buffer.
``available_events``
    Read-only list of every tracepoint (``category:event``, one per line).
``events/<category>/<event>/enable``
    Read/write ``0``/``1``; writing ``1`` attaches the hub's recording
    probe to that tracepoint, ``0`` detaches it.
``events/<category>/<event>/format``
    Read-only field list of the event.
``trace``
    Read-only rendered ring buffer (cleared by the hub, not by reads).
``metrics`` / ``metrics_prom``
    Read-only metrics registry export — JSON and Prometheus text format.
    (Linux has no such file; the simulator uses tracefs as the natural
    read-only mount for them.)
``stats``
    Read-only occupancy/overflow counters for every bounded ring the hub
    owns (trace buffer, audit ring, span ring) — a lossy run must be
    distinguishable from a quiet one.
``SACK/spans/``
    The causal span tracer (see ``docs/tracing.md``): ``enable`` (0/1),
    ``trace`` (rendered span trees), ``breakdown`` (per-stage latency
    attribution), ``chrome`` (Chrome trace-event JSON), ``folded``
    (flamegraph stacks), and ``stats``.

All decision files are owned by root with mode 0o644/0o600 exactly like
the securityfs files, so DAC governs who may toggle tracing.
"""

from __future__ import annotations

from typing import Optional

from .hub import Observability

#: Where tracefs lives, as on Linux.
TRACEFS_ROOT = "/sys/kernel/tracing"


class TraceFs:
    """Registers and serves the tracing pseudo-files for one kernel."""

    def __init__(self, kernel, obs: Optional[Observability] = None):
        self.kernel = kernel
        self.obs = obs or kernel.obs
        self.root = TRACEFS_ROOT
        self._register()

    # -- helpers -----------------------------------------------------------
    def _pseudo(self, relpath: str, read=None, write=None,
                mode: int = 0o644) -> None:
        # Imported here, not at module top: repro.obs must stay importable
        # from repro.kernel.syscalls without a circular package import.
        from ..kernel.vfs.inode import PseudoFileOps
        path = f"{self.root}/{relpath}"
        parent = path.rsplit("/", 1)[0]
        self.kernel.vfs.makedirs(parent)
        self.kernel.vfs.create_pseudo(path, PseudoFileOps(read=read,
                                                          write=write),
                                      mode=mode)

    @staticmethod
    def _parse_bool(data: bytes, what: str) -> bool:
        from ..kernel.errors import Errno, KernelError
        text = data.decode("utf-8", "replace").strip()
        if text not in ("0", "1"):
            raise KernelError(Errno.EINVAL, f"{what}: write 0 or 1")
        return text == "1"

    # -- registration ------------------------------------------------------
    def _register(self) -> None:
        self.kernel.vfs.mount("tracefs", self.root)
        self._pseudo("tracing_on", read=self._read_tracing_on,
                     write=self._write_tracing_on, mode=0o644)
        self._pseudo("available_events", read=self._read_available)
        self._pseudo("trace", read=self._read_trace)
        self._pseudo("metrics", read=self._read_metrics)
        self._pseudo("metrics_prom", read=self._read_metrics_prom)
        self._pseudo("stats", read=self._read_stats)
        self._pseudo("SACK/spans/enable", read=self._read_spans_enable,
                     write=self._write_spans_enable, mode=0o644)
        self._pseudo("SACK/spans/trace", read=self._read_spans_trace)
        self._pseudo("SACK/spans/breakdown",
                     read=self._read_spans_breakdown)
        self._pseudo("SACK/spans/chrome", read=self._read_spans_chrome)
        self._pseudo("SACK/spans/folded", read=self._read_spans_folded)
        self._pseudo("SACK/spans/stats", read=self._read_spans_stats)
        for point in self.obs.tracepoints:
            rel = f"events/{point.category}/{point.event}"
            self._pseudo(f"{rel}/enable",
                         read=self._make_read_enable(point.name),
                         write=self._make_write_enable(point.name),
                         mode=0o644)
            self._pseudo(f"{rel}/format",
                         read=self._make_read_format(point.name))

    # -- file callbacks ----------------------------------------------------
    def _read_tracing_on(self, task) -> bytes:
        return b"1\n" if self.obs.tracing_on else b"0\n"

    def _write_tracing_on(self, task, data: bytes) -> int:
        self.obs.tracing_on = self._parse_bool(data, "tracing_on")
        return len(data)

    def _read_available(self, task) -> bytes:
        return ("\n".join(self.obs.tracepoints.names()) + "\n").encode()

    def _read_trace(self, task) -> bytes:
        lines = ["# tracer: nop",
                 f"# entries: {len(self.obs.trace_buffer)} "
                 f"(dropped: {self.obs.trace_dropped})"]
        lines.extend(self.obs.trace_lines())
        return ("\n".join(lines) + "\n").encode()

    def _read_metrics(self, task) -> bytes:
        return (self.obs.metrics.to_json() + "\n").encode()

    def _read_metrics_prom(self, task) -> bytes:
        return self.obs.metrics.to_prometheus().encode()

    def _read_stats(self, task) -> bytes:
        lines = []
        for ring, stats in self.obs.ring_stats().items():
            lines.extend(f"{ring}_{key} {value}"
                         for key, value in stats.items())
        return ("\n".join(lines) + "\n").encode()

    # -- span tracer files -------------------------------------------------
    def _read_spans_enable(self, task) -> bytes:
        return b"1\n" if self.obs.spans.enabled else b"0\n"

    def _write_spans_enable(self, task, data: bytes) -> int:
        if self._parse_bool(data, "SACK/spans/enable"):
            self.obs.spans.enable()
        else:
            self.obs.spans.disable()
        return len(data)

    def _read_spans_trace(self, task) -> bytes:
        lines = self.obs.spans.render_lines()
        return ("\n".join(lines) + "\n").encode() if lines else b""

    def _read_spans_breakdown(self, task) -> bytes:
        report = self.obs.spans.breakdown()
        lines = [f"total_ns {report['total_ns']}",
                 f"traces {report['traces']}"]
        for stage, row in sorted(report["stages"].items()):
            lines.append(f"{stage} spans={row['spans']} "
                         f"self_ns={row['self_ns']} "
                         f"share={row['share']:.4f}")
        return ("\n".join(lines) + "\n").encode()

    def _read_spans_chrome(self, task) -> bytes:
        return (self.obs.spans.to_chrome() + "\n").encode()

    def _read_spans_folded(self, task) -> bytes:
        return self.obs.spans.to_folded().encode()

    def _read_spans_stats(self, task) -> bytes:
        lines = [f"{key} {value}"
                 for key, value in self.obs.spans.stats().items()]
        return ("\n".join(lines) + "\n").encode()

    def _make_read_enable(self, name: str):
        def read(task) -> bytes:
            return b"1\n" if self.obs.recording_enabled(name) else b"0\n"
        return read

    def _make_write_enable(self, name: str):
        def write(task, data: bytes) -> int:
            if self._parse_bool(data, f"events/{name}/enable"):
                self.obs.enable_recording(name)
            else:
                self.obs.disable_recording(name)
            return len(data)
        return write

    def _make_read_format(self, name: str):
        def read(task) -> bytes:
            point = self.obs.tracepoints.get(name)
            lines = [f"name: {point.event}", "format:"]
            lines.extend(f"\tfield: {field}" for field in point.fields)
            return ("\n".join(lines) + "\n").encode()
        return read


def mount_tracefs(kernel, obs: Optional[Observability] = None) -> TraceFs:
    """Mount tracefs on *kernel* (idempotence is the caller's concern)."""
    return TraceFs(kernel, obs=obs)
