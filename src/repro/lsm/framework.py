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
from operator import itemgetter
from typing import Callable, Dict, List, Sequence

from ..kernel.credentials import Capability
from ..kernel.security import SecurityHooks
from ..obs.tracepoints import LSM_HOOK_DISPATCH
from .capability import CapabilityLsm
from .hooks import HOOK_BIT, HOOK_NAME, Hook
from .module import LsmModule


def _no_object(args) -> str:
    return ""


def _file_path(args) -> str:
    file = args[1]
    return "" if file is None else file.path     # anonymous mmap: no file


def _capability_name(args) -> str:
    return args[1].value


def _address(args) -> str:
    addr = args[2]
    return addr if isinstance(addr, str) else ""    # a path, not (host, port)


#: How a denial's audit record names its object, fixed per hook by the
#: hook's signature: a path argument, the open file's path, the
#: capability's name or an ``AF_UNIX`` address; hooks on tasks and
#: socket objects name none.
OBJECT_PATH: Dict[Hook, Callable[[tuple], str]] = {
    **dict.fromkeys((Hook.TASK_ALLOC, Hook.TASK_KILL, Hook.SOCKET_CREATE,
                     Hook.SOCKET_LISTEN, Hook.SOCKET_ACCEPT,
                     Hook.SOCKET_SENDMSG, Hook.SOCKET_RECVMSG), _no_object),
    **dict.fromkeys((Hook.BPRM_CHECK_SECURITY, Hook.BPRM_COMMITTED_CREDS,
                     Hook.INODE_RENAME, Hook.INODE_GETATTR,
                     Hook.INODE_SETATTR), itemgetter(1)),
    **dict.fromkeys((Hook.INODE_CREATE, Hook.INODE_MKDIR, Hook.INODE_MKNOD,
                     Hook.INODE_UNLINK, Hook.INODE_RMDIR), itemgetter(2)),
    **dict.fromkeys((Hook.FILE_OPEN, Hook.FILE_PERMISSION, Hook.FILE_IOCTL,
                     Hook.MMAP_FILE), _file_path),
    Hook.CAPABLE: _capability_name,
    **dict.fromkeys((Hook.SOCKET_BIND, Hook.SOCKET_CONNECT), _address),
}


class LsmFramework(SecurityHooks):
    """Hook multiplexer over an ordered list of :class:`LsmModule`."""

    name = "lsm"

    def __init__(self, modules: Sequence[LsmModule] = ()):
        self.capability = CapabilityLsm()
        self.modules: List[LsmModule] = [self.capability, *modules]
        self._kernel = None
        self.obs = None            # set by attach(); the kernel's hub
        self._tp_hook = None       # cached lsm:hook_dispatch tracepoint
        self._spans = None         # cached hub SpanTracer
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
        #: SACK policy load and admin AppArmor profile reload — once each.
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
                    registry: Dict[str, LsmModule]) -> "LsmFramework":
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
        return cls(modules)

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
            self.obs.metrics.register_collector(self._collect_epoch)
        for module in self.modules:
            module.registered(kernel)

    def _collect_epoch(self):
        out = [("lsm_situation_epoch", (), "gauge", self.epoch)]
        out += [("lsm_situation_epoch_bumps_total", (("reason", reason),),
                 "counter", count)
                for reason, count in self.bump_reasons.items()]
        return out

    def module_named(self, name: str) -> LsmModule:
        for module in self.modules:
            if module.name == name:
                return module
        raise KeyError(name)

    # -- dispatch core ---------------------------------------------------------
    def _report_denial(self, hook: Hook, module: str, args,
                       rc: int) -> None:
        """AVC audit record for one denied access (never for allows).

        The capability module's refusals are excluded, as Linux routes
        the DAC fallback's capability probes through the noaudit
        variant: they run on every access by an unprivileged task and a
        'denial' there is normal operation.  A MAC module refusing a
        capability the task holds is a real denial and is recorded.
        """
        obs = self.obs
        if obs is None or module == CapabilityLsm.name:
            return
        task = args[0] if args else None
        obs.denial(module, HOOK_NAME[hook], OBJECT_PATH[hook](args), task,
                   rc)

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

        Each module on the hook's call list is called in stack order;
        the first nonzero return is audited and wins.  The walk has one
        per-call observer, the ``lsm:hook_dispatch`` tracepoint: while a
        probe is attached (hook counts, latency histograms, the trace
        ring) each module call is timed and emitted, otherwise the loop
        reads no clock.  An int hook runs inside a root span *linked* to
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
        tp = self._tp_hook
        if tp is not None and not tp.callbacks:
            tp = None
        rc = 0
        try:
            for name, method in self._hook_lists[hook]:
                t0 = time.perf_counter_ns() if tp is not None else 0
                rc = method(*args)
                if void:
                    rc = 0
                if tp is not None:
                    tp.emit(module=name, hook=hook.value, rc=rc,
                            latency_ns=time.perf_counter_ns() - t0)
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


def boot_kernel(modules: Sequence[LsmModule] = (), clock=None):
    """Boot a kernel with the given LSM stack; returns ``(kernel, framework)``.

    The returned framework is already attached (modules hold a kernel
    back-reference), matching the real boot order where ``security_init``
    runs before init starts.
    """
    from ..kernel.syscalls import Kernel
    framework = LsmFramework(modules)
    kernel = Kernel(security=framework, clock=clock)
    framework.attach(kernel)
    return kernel, framework
