"""SACK's security modules: one activation front end, three variants.

The paper separates policy from enforcement (§III-D): one SSM front end
drives either SACK's own hooks or a MAC backend's policy store.
:class:`SackModule` is that front end — the one ``load_policy`` every
variant shares.  :class:`SackLsm` is the first of the paper's two
prototypes (§III-E-3): SACK registers its own hooks and answers access
checks from its own (situation-indexed) rulesets — low check latency, no
dependence on other LSMs' policies.  The bridges
(:mod:`~repro.sack.apparmor_bridge`, :mod:`~repro.sack.selinux_bridge`)
instead rewrite a backend's policy store on every transition.

Tasks holding ``CAP_MAC_OVERRIDE`` bypass SACK, mirroring the threat-model
boundary (§III-A): attackers are assumed unable to obtain it.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from ..kernel.credentials import Capability
from ..kernel.syscalls import MAY_READ, MAY_WRITE
from ..kernel.vfs.file import OpenFile
from ..lsm.module import LsmModule
from .ape import AdaptivePolicyEnforcer
from .policy.compiler import CompiledPolicy, compile_policy
from .policy.model import RuleOp, SackPolicy
from .ssm import SituationStateMachine, Transition


class SackModule(LsmModule):
    """The ``sack`` LSM front end: policy, SSM and the activation path.

    A variant names its :attr:`backend` and supplies :meth:`_install`,
    the step that makes a freshly compiled policy enforce.  The default
    install is the bridges': apply the initial state to the backend, then
    re-apply on every transition through :meth:`_install_state`, the
    variant's translate-and-install step.
    """

    name = "sack"

    #: Label on the policy-load and bridge-apply metrics.
    backend = ""
    #: ``sack_policy_loaded`` audit detail (``name``, ``states``).
    loaded_audit = ""
    #: Audit kind of one bridge apply.
    applied_audit = ""

    def __init__(self):
        self.policy: Optional[SackPolicy] = None
        self.ssm: Optional[SituationStateMachine] = None
        self.ioctl_symbols: dict = {}

    @property
    def current_state(self) -> Optional[str]:
        return self.ssm.current_name if self.ssm is not None else None

    def _on_transition_bump_epoch(self, _transition) -> None:
        self.bump_epoch("transition")

    # -- policy lifecycle ----------------------------------------------------
    def load_policy(self, policy: SackPolicy, ioctl_symbols=None,
                    compiled: Optional[CompiledPolicy] = None
                    ) -> SituationStateMachine:
        """Compile, validate and activate *policy*; returns its SSM.

        Every variant compiles: independent SACK enforces the compiled
        rulesets, the bridges compile only to validate.  *compiled* is
        *policy* already compiled with *ioctl_symbols* (SACKfs passes its
        host's shared compile); it is read, never changed.  A failed
        install leaves the previous policy, SSM and enforcement state in
        force and re-raises.
        """
        started_ns = time.perf_counter_ns()
        if compiled is None:
            compiled = compile_policy(policy, ioctl_symbols=ioctl_symbols)
        self._validate(policy)
        ssm = policy.build_ssm()
        previous = self.policy, self.ioctl_symbols
        self.policy = policy
        self.ioctl_symbols = dict(ioctl_symbols or {})
        try:
            self._install(compiled, ssm)
        except Exception:
            # The install is all-or-nothing, so restoring the policy the
            # live state was built from leaves the old one in force.
            self.policy, self.ioctl_symbols = previous
            raise
        self.ssm = ssm
        # After the variant's own listener: by the time the epoch moves,
        # the new state's rules are in force.
        ssm.add_listener(self._on_transition_bump_epoch)
        self.bump_epoch("policy-load")
        self.audit("sack_policy_loaded", self.loaded_audit.format(
            name=policy.name, states=len(compiled.rulesets)))
        obs = getattr(self.kernel, "obs", None)
        if obs is not None:
            obs.attach_ssm(ssm, provider=self)
            obs.policy_load(compiled, self.backend,
                            time.perf_counter_ns() - started_ns)
        return ssm

    def _validate(self, policy: SackPolicy) -> None:
        """Reject *policy* (raise ``ValueError``) before anything changes."""

    def _install(self, compiled: CompiledPolicy,
                 ssm: SituationStateMachine) -> None:
        self._apply_state(ssm.current_name)
        ssm.add_listener(self._on_transition)

    # -- bridge apply ----------------------------------------------------------
    def _on_transition(self, transition: Transition) -> None:
        self._apply_state(transition.to_state)

    def _apply_state(self, state_name: str) -> None:
        """Install *state_name*'s rules into the backend, traced as one
        ``<backend>.reload`` span and timed into ``sack_bridge_apply_ns``.
        """
        obs = getattr(self.kernel, "obs", None)
        spans = obs.spans if obs is not None else None
        span = None
        if spans is not None:
            span = spans.start_span(f"{self.backend}.reload",
                                    stage="reload",
                                    attributes={"state": state_name})
        started_ns = time.perf_counter_ns() if obs is not None else 0
        try:
            applied = self._install_state(state_name)
        except Exception:
            if spans is not None:
                spans.end_span(span, status="error")
            raise
        if span is not None:
            span.attributes.update(applied)
        if spans is not None:
            spans.end_span(span)
        if obs is not None:
            obs.metrics.histogram(
                "sack_bridge_apply_ns", {"backend": self.backend}).record(
                    time.perf_counter_ns() - started_ns,
                    trace_id=span.trace_id if span is not None else None)
        self.audit(self.applied_audit, " ".join(
            [f"state={state_name}"]
            + [f"{key}={value}" for key, value in applied.items()]))

    def _install_state(self, state_name: str) -> Dict[str, object]:
        """Translate and install *state_name*'s rules; returns the
        counts the span and audit record carry.  Bridges only."""
        raise NotImplementedError


class SackLsm(SackModule):
    """The independent SACK security module."""

    backend = "independent"
    loaded_audit = "policy {name!r}, {states} states"

    def __init__(self):
        super().__init__()
        self.ape: Optional[AdaptivePolicyEnforcer] = None
        self.denial_count = 0

    # -- policy lifecycle ----------------------------------------------------
    def _install(self, compiled: CompiledPolicy,
                 ssm: SituationStateMachine) -> None:
        self.ape = AdaptivePolicyEnforcer(compiled, ssm)

    # -- the common check path --------------------------------------------------
    def _check(self, task, op: RuleOp, path: str,
               cmd: Optional[int] = None) -> int:
        if self.ape is None:
            return 0  # no policy loaded: SACK restricts nothing
        if task.cred.has_cap(Capability.CAP_MAC_OVERRIDE):
            return 0
        if self.ape.check(op, path, task.comm, cmd):
            return 0
        self.denial_count += 1
        obs = getattr(self.kernel, "obs", None)
        if obs is not None:
            # When a post-transition hook span is open, record which
            # state's ruleset denied — the attribution the trace exists
            # to provide.
            obs.spans.annotate(op=op.value, path=path,
                               state=self.ape.current_state)
        self.audit("sack_denied",
                   f"{op.value} {path} (state={self.ape.current_state})",
                   task)
        return self.EACCES

    # -- hooks -------------------------------------------------------------------
    def file_open(self, task, file: OpenFile) -> int:
        path = file.path
        if file.wants_read:
            rc = self._check(task, RuleOp.READ, path)
            if rc != 0:
                return rc
        if file.wants_write:
            return self._check(task, RuleOp.WRITE, path)
        return 0

    def file_permission(self, task, file: OpenFile, mask: int) -> int:
        path = file.path
        if mask & MAY_READ:
            rc = self._check(task, RuleOp.READ, path)
            if rc != 0:
                return rc
        if mask & MAY_WRITE:
            return self._check(task, RuleOp.WRITE, path)
        return 0

    def file_ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        return self._check(task, RuleOp.IOCTL, file.path, cmd)

    def bprm_check_security(self, task, exe_path: str) -> int:
        return self._check(task, RuleOp.EXEC, exe_path)

    def inode_create(self, task, parent_inode, path: str, mode: int) -> int:
        return self._check(task, RuleOp.CREATE, path)

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._check(task, RuleOp.UNLINK, path)

    def mmap_file(self, task, file, prot: int) -> int:
        if file is None:
            return 0
        return self._check(task, RuleOp.MMAP, file.path)
