"""SACK's security modules: one activation front end, two variants.

The paper separates policy from enforcement (§III-D): one SSM front end
drives either SACK's own hooks or a MAC backend's policy store.
:class:`SackModule` is that front end — the one ``load_policy`` both
variants share.  They are the paper's two prototypes (§III-E-3).
:class:`SackLsm` is independent SACK: it registers its own hooks and
answers access checks from its own (situation-indexed) rulesets — low
check latency, no dependence on other LSMs' policies.  The AppArmor
bridge (:mod:`~repro.sack.apparmor_bridge`) instead rewrites AppArmor's
profiles on every transition.

Tasks holding ``CAP_MAC_OVERRIDE`` bypass SACK, mirroring the threat-model
boundary (§III-A): attackers are assumed unable to obtain it.
"""

from __future__ import annotations

import time
from typing import Optional

from ..kernel.credentials import Capability
from ..kernel.syscalls import MAY_READ, MAY_WRITE
from ..kernel.vfs.file import OpenFile
from ..lsm.module import LsmModule
from .ape import AdaptivePolicyEnforcer
from .policy.compiler import CompiledPolicy, compile_policy
from .policy.model import RULE_OP_NAME, RuleOp, SackPolicy
from .ssm import SituationStateMachine


class SackModule(LsmModule):
    """The ``sack`` LSM front end: policy, SSM and the activation path.

    A variant names its :attr:`backend` and supplies :meth:`_install`,
    the step that makes a freshly compiled policy enforce.
    """

    name = "sack"

    #: Label on the policy-load and bridge-apply metrics.
    backend = ""

    def __init__(self):
        self.policy: Optional[SackPolicy] = None
        self.ssm: Optional[SituationStateMachine] = None
        self.ioctl_symbols: dict = {}
        #: :attr:`policy` compiled with :attr:`ioctl_symbols`; on a
        #: host, the one compile every world loading that text shares.
        self.compiled: Optional[CompiledPolicy] = None

    @property
    def current_state(self) -> Optional[str]:
        return self.ssm.current_name if self.ssm is not None else None

    def _on_transition_bump_epoch(self, _transition) -> None:
        # A committed transition's one epoch bump, in both variants: the
        # bridge's profile swaps make none of their own.
        self.bump_epoch("transition")

    # -- policy lifecycle ----------------------------------------------------
    def load_policy(self, policy: SackPolicy, ioctl_symbols=None,
                    compiled: Optional[CompiledPolicy] = None
                    ) -> SituationStateMachine:
        """Compile and activate *policy*; returns its SSM.

        Both variants compile: independent SACK enforces the compiled
        rulesets, the bridge keeps its AppArmor translations on it
        (:attr:`CompiledPolicy.bridge_rules`).
        *compiled* is *policy* already compiled with *ioctl_symbols*
        (SACKfs passes its host's shared compile); nothing but that memo
        of translations is written to it.  A failed install leaves the
        previous policy, compile, SSM and enforcement state in force and
        re-raises.
        """
        started_ns = time.perf_counter_ns()
        if compiled is None:
            compiled = compile_policy(policy, ioctl_symbols=ioctl_symbols)
        ssm = policy.build_ssm()
        previous = self.policy, self.ioctl_symbols, self.compiled
        self.policy = policy
        self.ioctl_symbols = dict(ioctl_symbols or {})
        self.compiled = compiled
        try:
            self._install(compiled, ssm)
        except Exception:
            # The install is all-or-nothing, so restoring the policy the
            # live state was built from leaves the old one in force.
            self.policy, self.ioctl_symbols, self.compiled = previous
            raise
        self.ssm = ssm
        # After the variant's own listener: by the time the epoch moves,
        # the new state's rules are in force.
        ssm.add_listener(self._on_transition_bump_epoch)
        self.bump_epoch("policy-load")
        obs = getattr(self.kernel, "obs", None)
        if obs is not None:
            obs.attach_ssm(ssm, provider=self)
            obs.policy_load(compiled, self.backend,
                            time.perf_counter_ns() - started_ns)
        return ssm

    def _install(self, compiled: CompiledPolicy,
                 ssm: SituationStateMachine) -> None:
        """Make *compiled* enforce from *ssm*'s current state on; all or
        nothing."""
        raise NotImplementedError


class SackLsm(SackModule):
    """The independent SACK security module."""

    backend = "independent"

    def __init__(self):
        super().__init__()
        self.ape: Optional[AdaptivePolicyEnforcer] = None

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
        obs = getattr(self.kernel, "obs", None)
        if obs is not None and obs.spans.active is not None:
            # When a post-transition hook span is open, record which
            # state's ruleset denied — the attribution the trace exists
            # to provide.  The framework writes the AVC record.
            obs.spans.annotate(op=RULE_OP_NAME[op], path=path,
                               state=self.ape.current_state)
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
