"""SACKfs: the securityfs interface of SACK (paper §III-C, §IV-A).

Exposes, under ``/sys/kernel/security/SACK/``:

``events``
    Write-only.  The SDS writes situation-event lines here; each write is
    parsed and fed to the SSM synchronously (this is the low-latency
    user→kernel channel of design challenge C1).  Writers must either hold
    ``CAP_MAC_ADMIN`` or run as an explicitly authorised uid.
``current``
    Read-only: current situation state name and encoding.
``policy``
    Write loads a full SACK policy text (requires ``CAP_MAC_ADMIN``);
    read returns a summary.
``states`` / ``state_per`` / ``per_rules``
    Read-only dumps of the loaded policy's interfaces (Table I).
``stats``
    Read-only counters (events, transitions, checks).
``audit``
    Read-only: the kernel's observability audit ring, rendered as AVC
    lines (see ``docs/observability.md``).
``watchdog``
    Read-only: staleness-watchdog status (deadline, last event, engaged),
    or ``disabled`` when the loaded policy declares no failsafe deadline
    (see ``docs/fault-injection.md``).

A :class:`~repro.faults.plan.FaultPlan` can be attached to exercise the
channel's failure paths deterministically (EIO/EAGAIN, short writes, byte
corruption, policy-load failure); see ``docs/fault-injection.md``.
"""

from __future__ import annotations

from typing import Optional, Set

from ..faults import points as fault_points
from ..faults.points import InjectedFault
from ..kernel.credentials import Capability
from ..kernel.errors import Errno, KernelError
from ..lsm.securityfs import SecurityFs
from ..obs.spans import TRACEPARENT_KEY
from .events import (EventParseError, EventSequencer, HEARTBEAT,
                     parse_event_buffer)
from ..lsm.policycache import PolicyCache
from .policy.compiler import compile_policy
from .policy.language import parse_policy
from .watchdog import StalenessWatchdog

#: SACKfs directory name under securityfs.
SACK_DIR = "SACK"
EVENTS_PATH = f"/sys/kernel/security/{SACK_DIR}/events"


class SackFs:
    """Registers and serves the SACK securityfs files for one kernel."""

    def __init__(self, kernel, module, securityfs: Optional[SecurityFs] = None,
                 authorized_event_uids: Optional[Set[int]] = None,
                 ioctl_symbols=None, fault_plan=None,
                 policy_cache: Optional[PolicyCache] = None):
        """*module* is any :class:`~repro.sack.module.SackModule`:
        independent SACK or either MAC bridge.  *policy_cache* holds the
        parsed and compiled policy texts this kernel shares with the
        other worlds on its host (a private one when not given)."""
        self.kernel = kernel
        self.module = module
        self.securityfs = securityfs or SecurityFs(kernel)
        self.authorized_event_uids = set(authorized_event_uids or ())
        self.ioctl_symbols = dict(ioctl_symbols or {})
        self.policy_cache = (policy_cache if policy_cache is not None
                             else PolicyCache())
        self.events_received = 0
        self.events_accepted = 0
        self.events_rejected = 0
        self.heartbeats_received = 0
        #: Deterministic fault plan for the channel's failure paths.
        self.fault_plan = fault_plan
        #: Staleness watchdog; created whenever the loaded policy declares
        #: ``failsafe <state> after <deadline>ms``.
        self.watchdog: Optional[StalenessWatchdog] = None
        #: Sequence numbers are assigned at the kernel entry point, so two
        #: kernels fed identical writes stamp identical sequences.
        self.sequencer = EventSequencer()
        self.obs = getattr(kernel, "obs", None)
        if self.obs is not None:
            self.obs.observe_sackfs(self)
            if getattr(module, "ssm", None) is not None:
                self.obs.attach_ssm(module.ssm, provider=module)
        self._register()

    # -- registration -----------------------------------------------------------
    def _register(self) -> None:
        fs = self.securityfs
        fs.create_dir(SACK_DIR)
        fs.create_file(f"{SACK_DIR}/events", write=self._write_events,
                       mode=0o622)
        fs.create_file(f"{SACK_DIR}/current", read=self._read_current,
                       mode=0o644)
        fs.create_file(f"{SACK_DIR}/policy", read=self._read_policy,
                       write=self._write_policy, mode=0o600,
                       write_cap=Capability.CAP_MAC_ADMIN)
        fs.create_file(f"{SACK_DIR}/states", read=self._read_states,
                       mode=0o644)
        fs.create_file(f"{SACK_DIR}/state_per", read=self._read_state_per,
                       mode=0o644)
        fs.create_file(f"{SACK_DIR}/per_rules", read=self._read_per_rules,
                       mode=0o644)
        fs.create_file(f"{SACK_DIR}/stats", read=self._read_stats,
                       mode=0o644)
        fs.create_file(f"{SACK_DIR}/audit", read=self._read_audit,
                       mode=0o600)
        fs.create_file(f"{SACK_DIR}/watchdog", read=self._read_watchdog,
                       mode=0o644)

    # -- event channel -------------------------------------------------------------
    def authorize_event_writer(self, uid: int) -> None:
        """Allow *uid* (the SDS service user) to submit events."""
        self.authorized_event_uids.add(uid)

    def _writer_allowed(self, task) -> bool:
        if task.cred.euid in self.authorized_event_uids:
            return True
        return self.kernel.capable(task, Capability.CAP_MAC_ADMIN)

    def _write_events(self, task, data: bytes) -> int:
        obs = self.obs
        # Every arrival counts as received, authorised or not — a denied
        # writer shows up in both events_received and events_rejected, so
        # the stats file never undercounts traffic.
        self.events_received += 1
        if not self._writer_allowed(task):
            self.events_rejected += 1
            if obs is not None:
                obs.event_rejected("writer not authorised", task)
            raise KernelError(Errno.EPERM,
                              "events: writer not authorised for SACK")
        data = self._inject_channel_faults(data)
        ssm = self.module.ssm
        if ssm is None:
            self.events_rejected += 1
            raise KernelError(Errno.ENODATA, "no SACK policy loaded")
        try:
            events = parse_event_buffer(data, self.kernel.clock.now_ns,
                                        sequencer=self.sequencer)
        except EventParseError as exc:
            self.events_rejected += 1
            if obs is not None:
                obs.event_rejected(str(exc), task)
            raise KernelError(Errno.EINVAL, str(exc)) from exc
        spans = obs.spans if obs is not None else None
        forwarded = 0
        for event in events:
            if event.name == HEARTBEAT:
                # Channel liveness only: feed the watchdog, never the SSM.
                self.heartbeats_received += 1
                continue
            span = None
            if spans is not None:
                # Resume the trace the SDS propagated on the event line:
                # this is where the context crosses user→kernel.
                span = spans.start_span(
                    "sackfs.write", stage="write",
                    remote=event.payload.get(TRACEPARENT_KEY),
                    attributes={"event": event.name, "seq": event.seq,
                                "pid": getattr(task, "pid", 0)})
            try:
                ssm.process_event(event, now_ns=self.kernel.clock.now_ns)
            finally:
                if spans is not None:
                    spans.end_span(span)
            forwarded += 1
        self.events_accepted += forwarded
        if self.watchdog is not None:
            self.watchdog.feed(self.kernel.clock.now_ns)
        if obs is not None and forwarded:
            obs.event_write(forwarded, len(data), task)
        return len(data)

    def _inject_channel_faults(self, data: bytes) -> bytes:
        """Apply any armed SACKfs channel faults to this write."""
        plan = self.fault_plan
        if plan is None:
            return data
        obs = self.obs
        now = self.kernel.clock.now_ns
        if plan.should_fail(fault_points.SACKFS_WRITE_EIO, now):
            self.events_rejected += 1
            if obs is not None:
                obs.fault_injected(fault_points.SACKFS_WRITE_EIO)
            raise KernelError(Errno.EIO,
                              "events: injected I/O error")
        if plan.should_fail(fault_points.SACKFS_WRITE_EAGAIN, now):
            self.events_rejected += 1
            if obs is not None:
                obs.fault_injected(fault_points.SACKFS_WRITE_EAGAIN)
            raise KernelError(Errno.EAGAIN,
                              "events: injected transient busy")
        if plan.should_fail(fault_points.SACKFS_SHORT_WRITE, now):
            if obs is not None:
                obs.fault_injected(fault_points.SACKFS_SHORT_WRITE)
            data = plan.truncate(data)
        if plan.should_fail(fault_points.SACKFS_CORRUPT, now):
            if obs is not None:
                obs.fault_injected(fault_points.SACKFS_CORRUPT)
            data = plan.corrupt(data)
        return data

    # -- policy files ---------------------------------------------------------------
    def _write_policy(self, task, data: bytes) -> int:
        plan = self.fault_plan
        if plan is not None and plan.should_fail(
                fault_points.POLICY_LOAD_FAIL, self.kernel.clock.now_ns):
            if self.obs is not None:
                self.obs.fault_injected(fault_points.POLICY_LOAD_FAIL)
            raise KernelError(Errno.EIO, "policy: injected load failure")
        # Parse, validate, and compile all happen before any live state
        # is replaced: a rejected policy leaves the old one enforcing.
        try:
            text = data.decode("utf-8")
            policy, compiled = self.policy_cache.get(
                ("sack", text, tuple(sorted(self.ioctl_symbols.items()))),
                lambda: self._compile_text(text))
            self.module.load_policy(policy,
                                    ioctl_symbols=self.ioctl_symbols,
                                    compiled=compiled)
        except (UnicodeDecodeError, ValueError) as exc:
            raise KernelError(Errno.EINVAL, f"policy: {exc}") from exc
        except InjectedFault as exc:
            # A backend fault mid-load (e.g. a bridge profile reload):
            # the module kept its old policy, so fail like a load fault.
            raise KernelError(Errno.EIO, f"policy: {exc}") from exc
        if policy.failsafe_deadline_ms is not None:
            self.watchdog = StalenessWatchdog(
                self.module.ssm, policy.failsafe_deadline_ms,
                self.kernel.clock)
        else:
            self.watchdog = None
        return len(data)

    def _compile_text(self, text: str):
        policy = parse_policy(text)
        return policy, compile_policy(policy,
                                      ioctl_symbols=self.ioctl_symbols)

    def _read_policy(self, task) -> bytes:
        policy = self.module.policy
        if policy is None:
            return b"no policy loaded\n"
        return policy.summary().encode()

    # -- read-only views ----------------------------------------------------------
    def _read_current(self, task) -> bytes:
        ssm = self.module.ssm
        if ssm is None:
            return b"none\n"
        return f"{ssm.current.name} {ssm.current.encoding}\n".encode()

    def _read_states(self, task) -> bytes:
        policy = self.module.policy
        if policy is None:
            return b""
        lines = [f"{s.name} {s.encoding}"
                 for s in sorted(policy.states, key=lambda s: s.encoding)]
        return ("\n".join(lines) + "\n").encode()

    def _read_state_per(self, task) -> bytes:
        policy = self.module.policy
        if policy is None:
            return b""
        lines = [f"{state}: {', '.join(sorted(perms))}"
                 for state, perms in sorted(policy.state_per.items())]
        return ("\n".join(lines) + "\n").encode()

    def _read_per_rules(self, task) -> bytes:
        policy = self.module.policy
        if policy is None:
            return b""
        lines = []
        for perm in sorted(policy.per_rules):
            lines.append(f"{perm}:")
            lines.extend(f"  {rule.to_text()}"
                         for rule in policy.per_rules[perm])
        return ("\n".join(lines) + "\n").encode()

    def _read_stats(self, task) -> bytes:
        lines = [f"events_received {self.events_received}",
                 f"events_accepted {self.events_accepted}",
                 f"events_rejected {self.events_rejected}",
                 f"heartbeats_received {self.heartbeats_received}"]
        ssm = self.module.ssm
        if ssm is not None:
            lines.extend(f"ssm_{k} {v}" for k, v in ssm.stats().items())
        ape = getattr(self.module, "ape", None)
        if ape is not None:
            lines.extend(f"ape_{k} {v}" for k, v in ape.stats().items())
        if self.watchdog is not None:
            lines.extend(f"watchdog_{k} {v}"
                         for k, v in self.watchdog.stats().items())
        return ("\n".join(lines) + "\n").encode()

    def _read_watchdog(self, task) -> bytes:
        if self.watchdog is None:
            return b"disabled\n"
        lines = [f"{k} {v}" for k, v in self.watchdog.stats().items()]
        return ("\n".join(lines) + "\n").encode()

    # -- fail-safe plumbing -------------------------------------------------------
    def check_watchdog(self) -> bool:
        """Evaluate the staleness deadline now.

        The world's tick loop calls this; returns True when the check
        engaged the failsafe.  A no-op without a watchdog (no policy, or
        a policy with no ``failsafe ... after`` deadline).
        """
        if self.watchdog is None:
            return False
        return self.watchdog.check(self.kernel.clock.now_ns)

    def attach_fault_plan(self, plan) -> None:
        """Attach (or replace, with ``None``) the channel fault plan."""
        self.fault_plan = plan

    def _read_audit(self, task) -> bytes:
        if self.obs is None:
            return b""
        text = self.obs.audit.to_text()
        return (text + "\n").encode() if text else b""
