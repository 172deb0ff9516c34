"""The ABAC LSM module (the Varshith-style baseline).

Every decision hook gathers subject attributes, queries the environment
(clock), and walks the rule list — the per-access evaluation model the
paper contrasts with SACK's precompiled situation rulesets.
"""

from __future__ import annotations

from typing import Optional

from ..kernel.syscalls import MAY_READ, MAY_WRITE
from ..kernel.vfs.file import OpenFile
from ..lsm.module import LsmModule
from ..obs.audit import AUDIT_POLICY_LOAD
from ..sack.policy.model import RuleOp
from .attributes import EnvironmentAttributes, subject_attributes
from .policy import AbacPolicy

MODULE_NAME = "abac"


class AbacLsm(LsmModule):
    """Attribute-based access control in the LSM framework."""

    name = MODULE_NAME

    def __init__(self, policy: Optional[AbacPolicy] = None):
        self.policy = policy
        self.environment: Optional[EnvironmentAttributes] = None
        self.evaluations = 0

    def registered(self, kernel) -> None:
        super().registered(kernel)
        self.environment = EnvironmentAttributes(kernel.clock)

    def load_policy(self, policy: AbacPolicy) -> None:
        self.policy = policy
        self.audit(AUDIT_POLICY_LOAD,
                   f"policy={policy.name} rules={policy.rule_count()}")

    # -- the per-access evaluation (the architectural contrast) ---------------
    def _check(self, task, op: RuleOp, path: str) -> int:
        if self.policy is None or self.environment is None:
            return 0
        self.evaluations += 1
        subject = subject_attributes(task)        # gathered per access
        environment = self.environment.snapshot()  # clock queried per access
        if self.policy.decide(op, path, subject, environment):
            return 0
        return self.EACCES

    # -- hooks ------------------------------------------------------------------
    def file_open(self, task, file: OpenFile) -> int:
        if file.wants_read:
            rc = self._check(task, RuleOp.READ, file.path)
            if rc != 0:
                return rc
        if file.wants_write:
            return self._check(task, RuleOp.WRITE, file.path)
        return 0

    def file_permission(self, task, file: OpenFile, mask: int) -> int:
        if mask & MAY_READ:
            rc = self._check(task, RuleOp.READ, file.path)
            if rc != 0:
                return rc
        if mask & MAY_WRITE:
            return self._check(task, RuleOp.WRITE, file.path)
        return 0

    def file_ioctl(self, task, file: OpenFile, cmd: int, arg: int) -> int:
        return self._check(task, RuleOp.IOCTL, file.path)

    def inode_create(self, task, parent_inode, path: str,
                     mode: int) -> int:
        return self._check(task, RuleOp.CREATE, path)

    def inode_unlink(self, task, inode, path: str) -> int:
        return self._check(task, RuleOp.UNLINK, path)
