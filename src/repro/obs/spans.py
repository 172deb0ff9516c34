"""Causal span tracing: trace-context propagation across the pipeline.

``repro.obs`` (tracepoints, audit, metrics) records *point* events; this
module adds the causal layer on top: an OpenTelemetry-style span tracer
whose context is threaded through every layer the paper's E5 event path
crosses — sensor sampling, SDS detection/coalescing, the SACKfs channel
write, the SSM transition (including rollback and failsafe), the APE
ruleset remap or the AppArmor profile reload — and *linked* (not parented)
to the first K post-transition LSM hook decisions under the new state.  A
denial can therefore be traced back to the exact sensor sample that caused
it, and the per-stage latency breakdown answers "where did the E5 latency
go?".

Design points:

* **Deterministic IDs.**  Trace and span IDs come from per-tracer sequence
  counters, never from randomness or wall time, so a seeded chaos run
  produces bit-for-bit identical ID sequences — the chaos fingerprint
  includes per-trace span counts and breaks loudly if tracing regresses.
* **Two time axes.**  Every span carries the *virtual-clock* timestamp
  (deterministic, fingerprintable, orders spans against kernel events) and
  a *CPU* interval from ``time.perf_counter_ns`` (real latency, feeds the
  breakdown report and the Chrome trace export; excluded from
  fingerprints, like every other perf-counter value in the repo).
* **Context propagation.**  Within one kernel the tracer keeps an active
  span stack (everything is synchronous); across the user→kernel boundary
  the SDS appends a ``traceparent=<trace>-<span>`` token to the event line
  and SACKfs resumes the trace from it — explicit wire context always wins
  over the ambient stack.
* **Zero cost off.**  Disabled, every entry point is one attribute load
  and a truthiness test; the LSM dispatch fast path checks a single
  ``watch_hooks`` flag.

Exports: rendered span trees (tracefs ``SACK/spans/trace``), a per-stage
latency attribution report (``SACK/spans/breakdown``), Chrome trace-event
JSON (``SACK/spans/chrome``, loadable in Perfetto / ``chrome://tracing``),
and folded flamegraph stacks (``SACK/spans/folded``).  See
``docs/tracing.md``.
"""

from __future__ import annotations

import dataclasses
import json
import time
from collections import deque
from typing import Deque, Dict, Iterator, List, Optional, Tuple

#: Finished traces retained (a ring: oldest drop first, counted).
SPAN_RING_CAPACITY = 2048

#: Post-transition LSM hook decisions linked back to the causing trace.
DEFAULT_LINK_WINDOW = 8

#: Event-line payload key carrying the user→kernel trace context.
TRACEPARENT_KEY = "traceparent"


@dataclasses.dataclass(frozen=True)
class SpanContext:
    """The propagatable identity of a span: ``(trace_id, span_id)``."""

    trace_id: str
    span_id: str

    def to_traceparent(self) -> str:
        """Serialise for the SACKfs event line (``trace-span``)."""
        return f"{self.trace_id}-{self.span_id}"

    @classmethod
    def from_traceparent(cls, value: Optional[str]
                         ) -> Optional["SpanContext"]:
        """Parse a wire token; malformed context is dropped, never fatal."""
        if not value:
            return None
        trace_id, sep, span_id = value.rpartition("-")
        if not sep or not trace_id or not span_id:
            return None
        return cls(trace_id=trace_id, span_id=span_id)


class Span:
    """One timed operation in a trace tree."""

    __slots__ = ("name", "stage", "trace_id", "span_id", "parent_id",
                 "start_ns", "end_ns", "cpu_start_ns", "cpu_end_ns",
                 "attributes", "links", "status", "children",
                 "is_local_root")

    def __init__(self, name: str, stage: str, trace_id: str, span_id: str,
                 parent_id: str, start_ns: int, cpu_start_ns: int,
                 attributes: Optional[dict] = None,
                 is_local_root: bool = False):
        self.name = name
        self.stage = stage or name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id          # "" for a true trace root
        self.start_ns = start_ns            # virtual clock
        self.end_ns: Optional[int] = None
        self.cpu_start_ns = cpu_start_ns    # perf counter
        self.cpu_end_ns: Optional[int] = None
        self.attributes: dict = attributes if attributes is not None else {}
        self.links: List[SpanContext] = []
        self.status = "ok"
        self.children: List["Span"] = []
        #: True when this span heads a locally-stored tree (a real root, or
        #: the local continuation of a remote parent context).
        self.is_local_root = is_local_root

    # -- identity ----------------------------------------------------------
    @property
    def context(self) -> SpanContext:
        return SpanContext(trace_id=self.trace_id, span_id=self.span_id)

    # -- timing ------------------------------------------------------------
    @property
    def duration_ns(self) -> int:
        """Virtual-clock duration (0 within one simulator tick)."""
        return (self.end_ns if self.end_ns is not None
                else self.start_ns) - self.start_ns

    @property
    def cpu_ns(self) -> int:
        """Real (perf-counter) duration of the span."""
        return (self.cpu_end_ns if self.cpu_end_ns is not None
                else self.cpu_start_ns) - self.cpu_start_ns

    @property
    def self_cpu_ns(self) -> int:
        """CPU time spent in this span excluding its children.

        By construction the self-times of a tree sum exactly to the
        root's ``cpu_ns`` — what makes the breakdown report add up.
        """
        return self.cpu_ns - sum(child.cpu_ns for child in self.children)

    # -- structure ---------------------------------------------------------
    def add_link(self, ctx: Optional[SpanContext]) -> None:
        """Causal link to another trace (weaker than parent/child)."""
        if ctx is not None:
            self.links.append(ctx)

    def walk(self, depth: int = 0) -> Iterator[Tuple["Span", int]]:
        """Pre-order traversal of the tree rooted here."""
        yield self, depth
        for child in self.children:
            yield from child.walk(depth + 1)

    def span_count(self) -> int:
        return 1 + sum(child.span_count() for child in self.children)

    def find(self, name: str) -> Optional["Span"]:
        """First span named *name* in this tree (pre-order), or None."""
        for span, _depth in self.walk():
            if span.name == name:
                return span
        return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"Span({self.name}, trace={self.trace_id[-6:]}, "
                f"span={self.span_id[-6:]}, status={self.status})")


class SpanTracer:
    """Per-kernel span tracer with an active-span stack and trace ring."""

    def __init__(self, obs, capacity: int = SPAN_RING_CAPACITY,
                 link_window: int = DEFAULT_LINK_WINDOW,
                 keep_empty_roots: bool = False):
        self.obs = obs
        self.capacity = capacity
        self.link_window = link_window
        self.keep_empty_roots = keep_empty_roots
        self.enabled = False
        #: Fast-path flag read by the LSM dispatch core: true only while
        #: enabled with post-transition link budget remaining.
        self.watch_hooks = False
        self.traces: Deque[Span] = deque()
        self.started = 0
        self.finished = 0
        self.dropped = 0            # finished traces evicted by the ring
        self.discarded = 0          # childless, link-less roots not kept
        #: Trace every hook dispatch, not just post-transition windows
        #: (benchmarks, deep debugging).
        self.trace_all = False
        self._stack: List[Span] = []
        self._trace_seq = 0
        self._span_seq = 0
        self._link_ctx: Optional[SpanContext] = None
        self._link_budget = 0

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        self.watch_hooks = self.trace_all or self._link_budget > 0

    def disable(self) -> None:
        """Stop tracing; abandons any open spans without storing them."""
        self.enabled = False
        self.watch_hooks = False
        self._stack.clear()
        self._link_ctx = None
        self._link_budget = 0

    def trace_all_hooks(self, on: bool = True) -> None:
        """Keep the spanned LSM dispatch path on permanently."""
        self.trace_all = on
        if self.enabled:
            self.watch_hooks = on or self._link_budget > 0

    def clear(self) -> None:
        """Drop stored traces and counters (IDs keep advancing)."""
        self.traces.clear()
        self.dropped = 0
        self.discarded = 0

    # -- ID generation (deterministic: sequence counters only) -------------
    def _next_trace_id(self) -> str:
        self._trace_seq += 1
        return f"{self._trace_seq:016x}"

    def _next_span_id(self) -> str:
        self._span_seq += 1
        return f"{self._span_seq:08x}"

    # -- span lifecycle ----------------------------------------------------
    @property
    def active(self) -> Optional[Span]:
        return self._stack[-1] if self._stack else None

    def start_span(self, name: str, stage: str = "",
                   remote: Optional[str] = None, root: bool = False,
                   attributes: Optional[dict] = None) -> Optional[Span]:
        """Open a span; returns None (a universal no-op) when disabled.

        Parent resolution: explicit wire context (*remote*, a
        ``traceparent`` token) wins over the ambient active span; *root*
        forces a fresh trace regardless.
        """
        if not self.enabled:
            return None
        parent: Optional[Span] = None
        remote_ctx: Optional[SpanContext] = None
        if not root:
            remote_ctx = SpanContext.from_traceparent(remote)
            if remote_ctx is None:
                parent = self.active
            else:
                active = self.active
                if (active is not None
                        and active.span_id == remote_ctx.span_id
                        and active.trace_id == remote_ctx.trace_id):
                    # The "remote" parent is in fact the span currently
                    # open on this tracer — the write was synchronous and
                    # in-process — so keep one connected tree instead of
                    # storing a detached fragment.
                    parent = active
        if parent is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        elif remote_ctx is not None:
            trace_id, parent_id = remote_ctx.trace_id, remote_ctx.span_id
        else:
            trace_id, parent_id = self._next_trace_id(), ""
        span = Span(name=name, stage=stage, trace_id=trace_id,
                    span_id=self._next_span_id(), parent_id=parent_id,
                    start_ns=self.obs.now_ns,
                    cpu_start_ns=time.perf_counter_ns(),
                    attributes=attributes,
                    is_local_root=parent is None)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        self.started += 1
        return span

    def end_span(self, span: Optional[Span],
                 status: Optional[str] = None) -> None:
        """Close *span*; stores its tree once the local root finishes."""
        if span is None or not self.enabled:
            return
        if status is not None:
            span.status = status
        now_ns = self.obs.now_ns
        cpu_now = time.perf_counter_ns()
        if span in self._stack:
            # Self-healing pop: anything opened above an explicitly ended
            # span was abandoned mid-flight — close it at the same instant.
            while self._stack:
                top = self._stack.pop()
                if top.end_ns is None:
                    top.end_ns = now_ns
                    top.cpu_end_ns = cpu_now
                if top is span:
                    break
        else:
            span.end_ns = now_ns
            span.cpu_end_ns = cpu_now
        if span.is_local_root:
            self._store(span)

    def annotate(self, **attributes) -> None:
        """Attach attributes to the active span (no-op when none)."""
        span = self.active
        if span is not None:
            span.attributes.update(attributes)

    def keeps(self, root: Span) -> bool:
        """Whether *root*, once finished, will be stored: a childless,
        link-less local root is discarded unless empty roots are kept.
        Children and links only accumulate, so a true answer for an
        open span holds when it ends."""
        return bool(self.keep_empty_roots or root.children or root.links
                    or root.parent_id)

    def _store(self, root: Span) -> None:
        self.finished += 1
        if not self.keeps(root):
            self.discarded += 1
            return
        if len(self.traces) >= self.capacity:
            self.traces.popleft()
            self.dropped += 1
        self.traces.append(root)

    # -- post-transition hook linking --------------------------------------
    def arm_links(self, ctx: Optional[SpanContext]) -> None:
        """The next :attr:`link_window` LSM hook decisions link to *ctx*."""
        if not self.enabled or ctx is None or self.link_window <= 0:
            return
        self._link_ctx = ctx
        self._link_budget = self.link_window
        self.watch_hooks = True

    def consume_link(self) -> Optional[SpanContext]:
        """One hook decision claims its link; drains the budget."""
        if self._link_budget <= 0:
            return None
        self._link_budget -= 1
        if self._link_budget == 0:
            self.watch_hooks = self.trace_all
        return self._link_ctx

    # -- queries -----------------------------------------------------------
    def roots(self) -> List[Span]:
        return list(self.traces)

    def trace_roots(self, trace_id: str) -> List[Span]:
        """Every stored tree fragment belonging to *trace_id* (retries and
        remote continuations store separate fragments under one trace)."""
        return [r for r in self.traces if r.trace_id == trace_id]

    def span_summaries(self) -> List[Tuple[str, str, int]]:
        """``(trace_id, root span name, span count)`` per stored tree —
        deterministic under a seeded run; fingerprinted by the chaos
        harness."""
        return [(root.trace_id, root.name, root.span_count())
                for root in self.traces]

    def stats(self) -> Dict[str, int]:
        return {
            "enabled": int(self.enabled),
            "started": self.started,
            "finished": self.finished,
            "stored": len(self.traces),
            "dropped": self.dropped,
            "discarded": self.discarded,
            "open": len(self._stack),
            "link_budget": self._link_budget,
        }

    # -- latency attribution -----------------------------------------------
    def breakdown(self, roots: Optional[List[Span]] = None
                  ) -> Dict[str, object]:
        """Per-stage latency attribution over *roots* (default: all).

        For every span, its *self* CPU time (duration minus children) is
        credited to its stage; the per-stage totals therefore sum exactly
        to ``total_ns``, the summed duration of the roots — no time is
        double-counted or lost.
        """
        roots = self.roots() if roots is None else list(roots)
        stages: Dict[str, Dict[str, float]] = {}
        total_ns = 0
        for root in roots:
            total_ns += root.cpu_ns
            for span, _depth in root.walk():
                row = stages.setdefault(span.stage,
                                        {"spans": 0, "self_ns": 0})
                row["spans"] += 1
                row["self_ns"] += span.self_cpu_ns
        for row in stages.values():
            row["share"] = (row["self_ns"] / total_ns) if total_ns else 0.0
        return {"total_ns": total_ns, "traces": len(roots),
                "stages": stages}

    # -- exports -----------------------------------------------------------
    def to_chrome(self, roots: Optional[List[Span]] = None,
                  indent: Optional[int] = None) -> str:
        """Chrome trace-event JSON (Perfetto / ``chrome://tracing``).

        Complete (``ph="X"``) events on CPU time, one ``tid`` per stored
        tree so concurrent traces land on separate tracks; span links ride
        in ``args``.
        """
        roots = self.roots() if roots is None else list(roots)
        base = min((r.cpu_start_ns for r in roots), default=0)
        events: List[dict] = []
        for tid, root in enumerate(roots, start=1):
            for span, _depth in root.walk():
                args = {
                    "trace_id": span.trace_id,
                    "span_id": span.span_id,
                    "parent_id": span.parent_id,
                    "status": span.status,
                    "vt_ns": span.start_ns,
                }
                args.update({str(k): v
                             for k, v in span.attributes.items()})
                if span.links:
                    args["links"] = [link.to_traceparent()
                                     for link in span.links]
                events.append({
                    "name": span.name,
                    "cat": span.stage,
                    "ph": "X",
                    "ts": (span.cpu_start_ns - base) / 1e3,
                    "dur": span.cpu_ns / 1e3,
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                })
        return json.dumps({"traceEvents": events,
                           "displayTimeUnit": "ns"}, indent=indent)

    def to_folded(self, roots: Optional[List[Span]] = None) -> str:
        """Folded stacks (``a;b;c <self_ns>``) for flamegraph tooling."""
        roots = self.roots() if roots is None else list(roots)
        lines: List[str] = []

        def rec(span: Span, prefix: str) -> None:
            frame = f"{prefix};{span.name}" if prefix else span.name
            self_ns = span.self_cpu_ns
            if self_ns > 0 or not span.children:
                lines.append(f"{frame} {max(self_ns, 0)}")
            for child in span.children:
                rec(child, frame)

        for root in roots:
            rec(root, "")
        return "\n".join(lines) + ("\n" if lines else "")

    def render_lines(self, roots: Optional[List[Span]] = None) -> List[str]:
        """Human-readable span trees (the ``SACK/spans/trace`` file)."""
        roots = self.roots() if roots is None else list(roots)
        lines: List[str] = []
        for root in roots:
            lines.append(f"trace {root.trace_id}"
                         + (f" (continues {root.parent_id})"
                            if root.parent_id else ""))
            for span, depth in root.walk():
                attrs = " ".join(f"{k}={v}"
                                 for k, v in span.attributes.items())
                links = " ".join(f"link->{l.to_traceparent()}"
                                 for l in span.links)
                parts = [f"{'  ' * (depth + 1)}{span.name}",
                         f"[{span.stage}]",
                         f"span={span.span_id}",
                         f"vt={span.start_ns}ns",
                         f"cpu={span.cpu_ns}ns",
                         f"status={span.status}"]
                if attrs:
                    parts.append(attrs)
                if links:
                    parts.append(links)
                lines.append(" ".join(parts))
        return lines
