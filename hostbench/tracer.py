"""Span tracing from outside the program.

The benchmark never edits the program to measure it.  Instead
:class:`Tracer` replaces the public entry points of each layer — class
attributes such as ``Kernel.sys_open`` or module functions such as
``compile_policy`` — with wrappers that open a span around the call.
Every span has a name (its layer), a start and end from the host clock
(``perf_counter_ns``), a parent (the span open when it started) and the id
of the benchmark operation it serves.

Self time is a span's duration minus the time its child spans cover.  The
program is single-threaded, so children never overlap and the self times
of all spans add up exactly to the duration of the root spans; the rest
of the traced wall time is the benchmark's own unattributed time.

Wrappers patch classes, so only objects built while the tracer is
installed are traced: the LSM framework binds module hook methods when it
is constructed.  Build the world after :meth:`Tracer.install` and tear it
down before comparing with an untraced world.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

#: Span name -> (call-count metric or None, self-time metric).  Every
#: span name maps to exactly one self-time metric, so the self-time
#: metrics partition the traced time.
SPAN_LAYERS: Dict[str, Tuple[Optional[str], str]] = {
    "kernel": ("kernel.syscalls", "kernel.self_ms"),
    "lsm": ("lsm.hook_calls", "lsm.self_ms"),
    "lsm.dtable_build": (None, "lsm.dtable_build_ms"),
    "sack.module": ("sack.module.calls", "sack.module.self_ms"),
    "sack.ape": ("sack.ape.checks", "sack.ape.self_ms"),
    "sack.ssm": ("sack.ssm.events", "sack.ssm.self_ms"),
    "sack.sackfs": (None, "sack.sackfs.self_ms"),
    "sack.policy": ("sack.policy.compiles", "sack.policy.compile_ms"),
    "apparmor": ("apparmor.calls", "apparmor.self_ms"),
    "apparmor.profile_load": (None, "apparmor.profile_load_ms"),
    "sds": (None, "sds.self_ms"),
    "obs.denial": ("obs.denials", "obs.denial_ms"),
    "fleet.tick": ("fleet.vehicle_ticks", "fleet.tick_ms"),
    "fleet.health": (None, "fleet.health_ms"),
    "fleet.telemetry": (None, "fleet.telemetry.collect_ms"),
    "fleet.supervisor": (None, "fleet.supervisor_ms"),
    "fleet.barrier": (None, "fleet.barrier_self_ms"),
    "fleet.bus.publish": ("fleet.bus.publishes", "fleet.bus.publish_ms"),
    "fleet.bus.deliver": (None, "fleet.bus.deliver_ms"),
    "fleet.rollout": (None, "fleet.rollout.step_ms"),
    "fleet.bundle.apply": ("fleet.bundle.applies", "fleet.bundle.apply_ms"),
    "fleet.bundle.verify": (None, "fleet.bundle.verify_ms"),
    "verify.gate": ("verify.gate_checks", "verify.gate_ms"),
}

#: Counters the wrappers derive from arguments and return values.
RESULT_COUNTERS = (
    "lsm.denials", "sack.ssm.transitions", "sack.sackfs.writes",
    "apparmor.profile_loads", "sds.polls", "sds.events_sent",
    "sds.heartbeats_sent", "fleet.telemetry.frames",
    "fleet.bus.copies_delivered",
)


class OpContext:
    """The id of the benchmark operation in progress.

    Workloads set ``op`` before each operation whether or not a tracer
    listens, so traced and untraced loops run the same code.
    """

    __slots__ = ("op",)

    def __init__(self):
        self.op = 0


# -- result counters ------------------------------------------------------------

def _count_transition(counters, result, args):
    if result is not None:
        counters["sack.ssm.transitions"] += 1


def _counter(name: str):
    def count(counters, result, args):
        counters[name] += 1
    return count


def _counter_if_true(name: str):
    def count(counters, result, args):
        if result:
            counters[name] += 1
    return count


def _count_frames(counters, result, args):
    counters["fleet.telemetry.frames"] += args[0].last_frames


def _count_copies(counters, result, args):
    counters["fleet.bus.copies_delivered"] += sum(
        len(messages) for messages in result.values())


def _targets() -> List[tuple]:
    """``(owner, attr, span, after, when)`` for every traced entry point.

    *owner* is a class or module; *after* derives counters from the
    call; *when* (given the call's arguments) limits the span to the
    calls it selects.
    """
    from repro.apparmor.module import AppArmorLsm
    from repro.apparmor.policydb import PolicyDb
    from repro.fleet import bundle as fleet_bundle
    from repro.fleet.backend import InProcessHost
    from repro.fleet.bus import V2xBus
    from repro.fleet.orchestrator import Fleet
    from repro.fleet.resilience import VehicleSupervisor
    from repro.fleet.rollout import RolloutController
    from repro.fleet.telemetry import FleetTelemetry
    from repro.fleet.vehicle import FleetVehicle
    from repro.kernel.syscalls import Kernel
    from repro.lsm.framework import LsmFramework
    from repro.lsm.hooks import Hook
    from repro.obs.hub import Observability
    from repro.sack.ape import AdaptivePolicyEnforcer
    from repro.sack.module import SackLsm
    from repro.sack.policy import compiler
    from repro.sack.sackfs import EVENTS_PATH, SackFs
    from repro.sack.ssm import SituationStateMachine
    from repro.sds.service import SituationDetectionService
    from repro.verify.gate import ProofGate

    hooks = [hook.value for hook in Hook]
    out: List[tuple] = []
    out += [(Kernel, attr, "kernel", None, None)
            for attr in sorted(vars(Kernel)) if attr.startswith("sys_")]
    out.append((Kernel, "write_file", "sack.sackfs",
                _counter("sack.sackfs.writes"),
                lambda args: len(args) > 2 and args[2] == EVENTS_PATH))
    out.append((SackFs, "_write_events", "sack.sackfs", None, None))
    out += [(LsmFramework, hook, "lsm", _counter_if_true("lsm.denials"),
             None)
            for hook in hooks if hook in vars(LsmFramework)]
    out.append((LsmFramework, "rebuild_dtable", "lsm.dtable_build", None,
                None))
    out += [(SackLsm, hook, "sack.module", None, None)
            for hook in hooks if hook in vars(SackLsm)]
    out.append((AdaptivePolicyEnforcer, "check", "sack.ape", None, None))
    out.append((SituationStateMachine, "process_event", "sack.ssm",
                _count_transition, None))
    out += [(module, "compile_policy", "sack.policy", None, None)
            for module in _importers(compiler.compile_policy,
                                     "compile_policy")]
    out += [(AppArmorLsm, hook, "apparmor", None, None)
            for hook in hooks if hook in vars(AppArmorLsm)]
    out.append((PolicyDb, "load_text", "apparmor.profile_load", None, None))
    out.append((PolicyDb, "load_profile", "apparmor.profile_load",
                _counter("apparmor.profile_loads"), None))
    out.append((PolicyDb, "replace_profile", "apparmor.profile_load", None,
                None))
    out.append((PolicyDb, "remove_profile", "apparmor.profile_load",
                _counter("apparmor.profile_loads"), None))
    out.append((SituationDetectionService, "poll", "sds",
                _counter("sds.polls"), None))
    out.append((SituationDetectionService, "send_event", "sds",
                _counter_if_true("sds.events_sent"), None))
    out.append((SituationDetectionService, "send_heartbeat", "sds",
                _counter_if_true("sds.heartbeats_sent"), None))
    out.append((Observability, "denial", "obs.denial", None, None))
    out.append((FleetVehicle, "tick", "fleet.tick", None, None))
    out.append((InProcessHost, "health_snapshot", "fleet.health", None,
                None))
    out.append((FleetTelemetry, "collect", "fleet.telemetry",
                _count_frames, None))
    out += [(VehicleSupervisor, attr, "fleet.supervisor", None, None)
            for attr in ("begin_epoch", "end_epoch", "check_invariants")]
    out.append((Fleet, "run_epoch", "fleet.barrier", None, None))
    out.append((V2xBus, "publish", "fleet.bus.publish", None, None))
    out.append((V2xBus, "deliver_due", "fleet.bus.deliver", _count_copies,
                None))
    out.append((RolloutController, "step", "fleet.rollout", None, None))
    out.append((FleetVehicle, "apply_bundle", "fleet.bundle.apply", None,
                None))
    out += [(module, "verify_bundle", "fleet.bundle.verify", None, None)
            for module in _importers(fleet_bundle.verify_bundle,
                                     "verify_bundle")]
    out.append((ProofGate, "evaluate_bundle", "verify.gate", None, None))
    return out


def _importers(function, attr: str) -> list:
    """Every loaded ``repro`` module that binds *function* as *attr*."""
    return [module for name, module in sorted(sys.modules.items())
            if (name == "repro" or name.startswith("repro."))
            and getattr(module, attr, None) is function]


class Tracer:
    """Records spans and counts at every traced entry point."""

    def __init__(self, ctx: OpContext, max_stored: int = 100_000):
        self.ctx = ctx
        self.max_stored = max_stored
        self.names: List[str] = list(SPAN_LAYERS)
        self.calls: List[int] = [0] * len(self.names)
        self.self_ns: List[int] = [0] * len(self.names)
        self.counters: Counter = Counter({name: 0
                                          for name in RESULT_COUNTERS})
        #: Total duration of spans opened with no span open.
        self.root_ns = 0
        self.spans_started = 0
        self._stack: List[list] = []
        # Stored spans, one row per array index (first max_stored only).
        self._sid = array("q")
        self._name = array("B")
        self._start = array("q")
        self._end = array("q")
        self._parent = array("q")
        self._op = array("q")
        self._patched: List[Tuple[object, str, object]] = []

    # -- installation -------------------------------------------------------------
    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        index = {name: i for i, name in enumerate(self.names)}
        for owner, attr, span, after, when in _targets():
            original = (vars(owner)[attr] if isinstance(owner, type)
                        else getattr(owner, attr))
            setattr(owner, attr,
                    self._wrap(original, index[span], after, when))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.uninstall()

    def _wrap(self, fn: Callable, idx: int, after, when) -> Callable:
        tracer = self
        stack = self._stack
        clock = time.perf_counter_ns
        calls = self.calls
        self_ns = self.self_ns
        counters = self.counters

        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            sid = tracer.spans_started
            tracer.spans_started = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[idx] += 1
                self_ns[idx] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                else:
                    tracer.root_ns += duration
                if sid < tracer.max_stored:
                    tracer._store(sid, idx, start, end, parent)
            if after is not None:
                after(counters, result, args)
            return result

        return wrapper

    def _store(self, sid: int, idx: int, start: int, end: int,
               parent: int) -> None:
        self._sid.append(sid)
        self._name.append(idx)
        self._start.append(start)
        self._end.append(end)
        self._parent.append(parent)
        self._op.append(self.ctx.op)

    # -- results -------------------------------------------------------------------
    def layer_counts(self) -> Dict[str, int]:
        """Call counts and result counters, by per-layer metric name."""
        out: Dict[str, int] = dict(self.counters)
        for i, name in enumerate(self.names):
            count_metric = SPAN_LAYERS[name][0]
            if count_metric is not None:
                out[count_metric] = self.calls[i]
        return out

    def self_ms(self) -> Dict[str, float]:
        """Self time by per-layer metric name, in milliseconds."""
        return {SPAN_LAYERS[name][1]: self.self_ns[i] / 1e6
                for i, name in enumerate(self.names)}

    def write_spans(self, path: str) -> int:
        """Write the stored spans as tab-separated rows; returns the count."""
        with open(path, "w", encoding="ascii") as out:
            out.write("span\tname\tstart_ns\tend_ns\tparent\top\n")
            for row in zip(self._sid, self._name, self._start, self._end,
                           self._parent, self._op):
                sid, idx, start, end, parent, op = row
                out.write(f"{sid}\t{self.names[idx]}\t{start}\t{end}\t"
                          f"{parent}\t{op}\n")
        return len(self._sid)
