"""The LSM framework: ordered module stacking and hook dispatch.

Implements the semantics the paper's compatibility evaluation (§IV-D)
relies on: modules are consulted in the order given by the ``CONFIG_LSM``
string ("whitelist-based"); the first module that denies short-circuits the
call, so when SACK is listed first its check runs *before* AppArmor's, and
AppArmor only sees accesses SACK already allowed.

The capability module is always implicitly first, as in Linux.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List, Sequence, Tuple

from ..kernel.credentials import Capability
from ..kernel.security import SecurityHooks
from ..obs.metrics import sample
from ..obs.tracepoints import LSM_HOOK_DISPATCH
from .capability import CapabilityLsm
from .hooks import HOOK_BIT, Hook
from .module import LsmModule


class HookStats:
    """Per-(module, hook) call and denial counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.denials: Counter = Counter()

    def record(self, module: str, hook: Hook, denied: bool) -> None:
        key = f"{module}.{hook.value}"
        self.calls[key] += 1
        if denied:
            self.denials[key] += 1

    def total_calls(self) -> int:
        return self.calls.total()

    def total_denials(self) -> int:
        return self.denials.total()

    def snapshot(self) -> Dict[str, object]:
        """Point-in-time copy, safe to hold across further dispatches."""
        return {
            "calls": dict(self.calls),
            "denials": dict(self.denials),
            "total_calls": self.total_calls(),
            "total_denials": self.total_denials(),
        }

    def top(self, n: int = 10) -> List[Tuple[str, int, int]]:
        """The *n* hottest (module.hook, calls, denials) sites."""
        return [(key, count, self.denials.get(key, 0))
                for key, count in self.calls.most_common(n)]

    def reset(self) -> None:
        self.calls.clear()
        self.denials.clear()


class LsmFramework(SecurityHooks):
    """Hook multiplexer over an ordered list of :class:`LsmModule`."""

    name = "lsm"

    def __init__(self, modules: Sequence[LsmModule] = (),
                 collect_stats: bool = False):
        self.capability = CapabilityLsm()
        self.modules: List[LsmModule] = [self.capability, *modules]
        self.stats = HookStats() if collect_stats else None
        self._kernel = None
        self.obs = None            # set by attach(); the kernel's hub
        self._tp_hook = None       # cached lsm:hook_dispatch tracepoint
        self._spans = None         # cached hub SpanTracer
        self._latency = None       # {(module, hook): Histogram} when on
        names = [m.name for m in self.modules]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate LSM names in stack: {names}")
        # Per-hook call lists, as Linux builds at security_init time: only
        # modules that actually override a hook appear on its list, so
        # unimplemented hooks cost nothing at dispatch time.
        self._hook_lists: Dict[Hook, List] = {}
        for hook in Hook:
            entries = []
            for module in self.modules:
                method = getattr(type(module), hook.value, None)
                if method is not None and method is not getattr(
                        LsmModule, hook.value):
                    entries.append((module.name,
                                    getattr(module, hook.value)))
            self._hook_lists[hook] = entries
        # Implemented-hook bitmap: one bit per hook anyone implements.
        # ``_call_int`` tests it before any other dispatch bookkeeping,
        # so hooks no module cares about cost a single ``and``.
        self.hook_bitmap = 0
        for hook, entries in self._hook_lists.items():
            if entries:
                self.hook_bitmap |= HOOK_BIT[hook]
        #: The situation epoch: advanced by :meth:`bump_epoch` on every
        #: committed transition (rollbacks and failsafe settles included),
        #: policy load and AppArmor profile reload.
        self.epoch = 0
        self.bump_reasons: Counter = Counter()

    # -- situation epoch ------------------------------------------------------
    def bump_epoch(self, reason: str) -> None:
        """Advance the situation epoch, counting the bump under *reason*."""
        self.epoch += 1
        self.bump_reasons[reason] += 1

    @property
    def epoch_bumps(self) -> int:
        """Bumps so far; every bump advances the epoch by exactly one."""
        return self.epoch

    # -- frozen benchmark surface: the retired caches' counters --------------
    # The host benchmark (hostbench/, frozen with BENCHMARK.json) still
    # reads framework.avc.core.{hits,misses,epoch_bumps} and
    # framework.dtable.hits, and its tracer wraps rebuild_dtable.  These
    # names resolve over the situation epoch with every cache counter at
    # zero.  Nothing in src/ reads them; they go when the benchmark
    # retires its lsm.avc_* / lsm.dtable_* per-layer metrics.
    class _RetiredCacheView:
        """Read-only epoch view standing in for the removed stack AVC
        (as ``avc`` and ``avc.core``) and decision table (``dtable``)."""

        hits = 0
        misses = 0

        def __init__(self, framework: "LsmFramework"):
            self._framework = framework

        @property
        def core(self) -> "LsmFramework._RetiredCacheView":
            return self

        @property
        def epoch_bumps(self) -> int:
            return self._framework.epoch_bumps

    @property
    def avc(self) -> "LsmFramework._RetiredCacheView":
        return self._RetiredCacheView(self)

    dtable = avc

    def rebuild_dtable(self) -> int:
        """No-op: there is no decision table to build."""
        return 0

    @classmethod
    def from_config(cls, config_lsm: str,
                    registry: Dict[str, LsmModule],
                    collect_stats: bool = False) -> "LsmFramework":
        """Build a stack from a ``CONFIG_LSM="sack,apparmor"`` string.

        *registry* maps module names to instances; unknown names raise
        ``KeyError`` (a misconfigured kernel fails to boot), and so does
        a name listed twice — Linux's ``ordered_lsm_parse`` drops
        duplicates, but a doubled entry in a curated config is always a
        typo and silently reordering the stack would mask it.
        """
        names = [n.strip() for n in config_lsm.split(",") if n.strip()]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"CONFIG_LSM lists duplicate module names: {dupes} "
                f"(config was {config_lsm!r})")
        modules = []
        for name in names:
            if name == "capability":
                continue  # always present, always first
            modules.append(registry[name])
        return cls(modules, collect_stats=collect_stats)

    @property
    def config_lsm(self) -> str:
        """The effective ``CONFIG_LSM`` string for this stack."""
        return ",".join(m.name for m in self.modules)

    def attach(self, kernel) -> None:
        """Give every module a back-reference to the booted kernel."""
        self._kernel = kernel
        self.obs = getattr(kernel, "obs", None)
        if self.obs is not None:
            self._tp_hook = self.obs.tracepoints.get(LSM_HOOK_DISPATCH)
            self._spans = getattr(self.obs, "spans", None)
            if self.stats is not None:
                # The metrics export reads HookStats live instead of
                # keeping duplicate counts that could drift.
                self.obs.metrics.register_collector(self._collect_stats)
            self.obs.metrics.register_collector(self._collect_epoch)
        for module in self.modules:
            module.registered(kernel)

    def _collect_stats(self):
        stats = self.stats
        if stats is None:
            return []
        out = [sample("lsm_hook_calls_total", {"site": key}, "counter",
                      count) for key, count in stats.calls.items()]
        out.extend(sample("lsm_hook_denials_total", {"site": key},
                          "counter", count)
                   for key, count in stats.denials.items())
        return out

    def _collect_epoch(self):
        out = [sample("lsm_situation_epoch", {}, "gauge", self.epoch)]
        out.extend(sample("lsm_situation_epoch_bumps_total",
                          {"reason": reason}, "counter", count)
                   for reason, count in self.bump_reasons.items())
        return out

    # -- hook latency collection ---------------------------------------------
    def enable_hook_latency(self) -> None:
        """Collect per-(module, hook) latency histograms on every dispatch.

        Requires an attached kernel (histograms live in its metrics
        registry).  Until enabled, the dispatch fast path never reads the
        wall clock.
        """
        if self.obs is None:
            raise RuntimeError("attach() the framework to a kernel first")
        self._latency = {}

    def disable_hook_latency(self) -> None:
        self._latency = None

    def _latency_histogram(self, module: str, hook: Hook):
        hist = self._latency.get((module, hook))
        if hist is None:
            hist = self.obs.metrics.histogram(
                "lsm_hook_latency_ns",
                {"module": module, "hook": hook.value})
            self._latency[(module, hook)] = hist
        return hist

    def hook_latency_summary(self) -> Dict[str, Dict[str, float]]:
        """Per-hook latency summary (merged across modules).

        Returns ``{hook: {count, mean_ns, p50_ns, p99_ns, max_ns}}``; the
        percentiles of the merged view are the worst (largest) per-module
        percentile, a conservative bound that avoids re-binning.
        """
        if self._latency is None:
            return {}
        merged: Dict[str, Dict[str, float]] = {}
        for (module, hook), hist in self._latency.items():
            if hist.count == 0:
                continue
            row = merged.setdefault(hook.value, {
                "count": 0, "total_ns": 0.0, "p50_ns": 0.0,
                "p99_ns": 0.0, "max_ns": 0.0})
            row["count"] += hist.count
            row["total_ns"] += hist.total
            row["p50_ns"] = max(row["p50_ns"], hist.percentile(50))
            row["p99_ns"] = max(row["p99_ns"], hist.percentile(99))
            row["max_ns"] = max(row["max_ns"], hist.max or 0.0)
        for row in merged.values():
            row["mean_ns"] = row.pop("total_ns") / row["count"]
        return merged

    def module_named(self, name: str) -> LsmModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(name)

    # -- dispatch core ---------------------------------------------------------
    @staticmethod
    def _object_path(args) -> str:
        """Best-effort object path from a hook's arguments (for audit)."""
        for arg in args[1:]:
            if isinstance(arg, str):
                return arg
            path = getattr(arg, "path", None)
            if isinstance(path, str):
                return path
        return ""

    def _report_denial(self, hook: Hook, module: str, args,
                       rc: int) -> None:
        """AVC audit record for one denied access (never for allows).

        ``capable`` probes are excluded, as Linux routes them through the
        noaudit variant: DAC fallbacks probe capabilities on every access
        by unprivileged tasks and a 'denial' there is normal operation.
        """
        obs = self.obs
        if obs is None or hook is Hook.CAPABLE:
            return
        task = args[0] if args else None
        obs.denial(module, hook.value, self._object_path(args), task, rc)

    def _call_int(self, hook: Hook, *args) -> int:
        """Dispatch an int hook; first nonzero module return wins (deny).

        The implemented-hook bitmap answers hooks nobody registered with
        one ``and``; everything else takes the module walk.  There is no
        decision cache: as in the paper (§III-E), an access costs one
        lookup in each module's current ruleset.
        """
        if not self.hook_bitmap & HOOK_BIT[hook]:
            return 0
        return self._walk(hook, args)

    def _walk(self, hook: Hook, args, void: bool = False) -> int:
        """The one module walk every dispatch takes.

        Each module on the hook's call list is called in stack order and
        counted in HookStats; the first nonzero return is audited and
        wins.  Observation rides the same loop: a module call is timed
        (latency histogram, ``lsm:hook_dispatch``) only while an observer
        is present, and an int hook runs inside a root span *linked* to
        the trace that caused the current situation while hooks are
        watched — a link, not a parent edge, since the hook runs under
        the new state rather than on the transition's critical path.
        *void* hooks take no span and ignore return codes.
        """
        span = None
        spans = self._spans
        if not void and spans is not None and spans.watch_hooks:
            task = args[0] if args else None
            span = spans.start_span(
                f"lsm.{hook.value}", stage="hook", root=True,
                attributes={"pid": getattr(task, "pid", 0),
                            "comm": getattr(task, "comm", "")})
            if span is not None:
                span.add_link(spans.consume_link())
        stats = self.stats
        latency = self._latency
        tp = self._tp_hook
        timed = latency is not None or (tp is not None and tp.callbacks)
        trace_id = span.trace_id if span is not None else None
        rc = 0
        try:
            for name, method in self._hook_lists[hook]:
                t0 = time.perf_counter_ns() if timed else 0
                rc = method(*args)
                if void:
                    rc = 0
                if timed:
                    dt = time.perf_counter_ns() - t0
                    if latency is not None:
                        self._latency_histogram(name, hook).record(
                            dt, trace_id=trace_id)
                    if tp is not None and tp.callbacks:
                        tp.emit(module=name, hook=hook.value, rc=rc,
                                latency_ns=dt)
                if stats is not None:
                    stats.record(name, hook, denied=rc != 0)
                if rc != 0:
                    if span is not None:
                        span.attributes["module"] = name
                        span.attributes["rc"] = rc
                    self._report_denial(hook, name, args, rc)
                    return rc
            return 0
        finally:
            if span is not None:
                spans.end_span(span, status="denied" if rc != 0 else "ok")

    def _call_void(self, hook: Hook, *args) -> None:
        self._walk(hook, args, void=True)

    # -- SecurityHooks implementation -------------------------------------------
    def task_alloc(self, parent, child) -> int:
        return self._call_int(Hook.TASK_ALLOC, parent, child)

    def bprm_check_security(self, task, exe_path: str) -> int:
        return self._call_int(Hook.BPRM_CHECK_SECURITY, task, exe_path)

    def bprm_committed_creds(self, task, exe_path: str) -> None:
        self._call_void(Hook.BPRM_COMMITTED_CREDS, task, exe_path)

    def task_kill(self, task, target) -> int:
        return self._call_int(Hook.TASK_KILL, task, target)

    def capable(self, task, cap: Capability) -> int:
        return self._call_int(Hook.CAPABLE, task, cap)

    def inode_create(self, task, parent_inode, path: str, mode: int) -> int:
        return self._call_int(Hook.INODE_CREATE, task, parent_inode, path, mode)

    def inode_mkdir(self, task, parent_inode, path: str, mode: int) -> int:
        return self._call_int(Hook.INODE_MKDIR, task, parent_inode, path, mode)

    def inode_mknod(self, task, parent_inode, path: str, mode: int) -> int:
        return self._call_int(Hook.INODE_MKNOD, task, parent_inode, path, mode)

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._call_int(Hook.INODE_UNLINK, task, inode, path)

    def inode_rmdir(self, task, inode, path: str) -> int:
        return self._call_int(Hook.INODE_RMDIR, task, inode, path)

    def inode_rename(self, task, old_path: str, new_path: str) -> int:
        return self._call_int(Hook.INODE_RENAME, task, old_path, new_path)

    def inode_getattr(self, task, path: str) -> int:
        return self._call_int(Hook.INODE_GETATTR, task, path)

    def inode_setattr(self, task, path: str) -> int:
        return self._call_int(Hook.INODE_SETATTR, task, path)

    def file_open(self, task, file) -> int:
        return self._call_int(Hook.FILE_OPEN, task, file)

    def file_permission(self, task, file, mask: int) -> int:
        return self._call_int(Hook.FILE_PERMISSION, task, file, mask)

    def file_ioctl(self, task, file, cmd: int, arg: int) -> int:
        return self._call_int(Hook.FILE_IOCTL, task, file, cmd, arg)

    def mmap_file(self, task, file, prot: int) -> int:
        return self._call_int(Hook.MMAP_FILE, task, file, prot)

    def socket_create(self, task, family) -> int:
        return self._call_int(Hook.SOCKET_CREATE, task, family)

    def socket_bind(self, task, sock, addr) -> int:
        return self._call_int(Hook.SOCKET_BIND, task, sock, addr)

    def socket_listen(self, task, sock) -> int:
        return self._call_int(Hook.SOCKET_LISTEN, task, sock)

    def socket_connect(self, task, sock, addr) -> int:
        return self._call_int(Hook.SOCKET_CONNECT, task, sock, addr)

    def socket_accept(self, task, sock) -> int:
        return self._call_int(Hook.SOCKET_ACCEPT, task, sock)

    def socket_sendmsg(self, task, sock, size: int) -> int:
        return self._call_int(Hook.SOCKET_SENDMSG, task, sock, size)

    def socket_recvmsg(self, task, sock, size: int) -> int:
        return self._call_int(Hook.SOCKET_RECVMSG, task, sock, size)


def boot_kernel(modules: Sequence[LsmModule] = (),
                collect_stats: bool = False,
                clock=None):
    """Boot a kernel with the given LSM stack; returns ``(kernel, framework)``.

    The returned framework is already attached (modules hold a kernel
    back-reference), matching the real boot order where ``security_init``
    runs before init starts.
    """
    from ..kernel.syscalls import Kernel
    framework = LsmFramework(modules, collect_stats=collect_stats)
    kernel = Kernel(security=framework, clock=clock)
    framework.attach(kernel)
    return kernel, framework
