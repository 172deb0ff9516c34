"""The SACK policy model: the four Table-I interfaces as data.

A policy is the triple family the paper describes — ``(SS_i, P_i, MR_i)``:
situation states, SACK permissions, the ``State_Per`` mapping from states
to permissions, and the ``Per_Rules`` mapping from permissions to MAC
rules.  Guards declare which resources SACK governs at all; everything
outside the guards is none of SACK's business (that is what keeps the
hot-path overhead negligible).
"""

from __future__ import annotations

import dataclasses
import enum
from typing import Dict, FrozenSet, List, Optional, Set

from ...apparmor.globs import compile_glob
from .. import ssm as ssm_mod
from ..states import SituationState, StateSpace


class RuleDecision(enum.Enum):
    ALLOW = "allow"
    DENY = "deny"


class RuleOp(enum.Enum):
    """Operations a MAC rule can mediate.

    Hashed by identity, in C, as :class:`~repro.lsm.hooks.Hook` is: the
    APE keys its per-op rule tables on it at every check.
    """

    __hash__ = object.__hash__

    READ = "read"
    WRITE = "write"
    IOCTL = "ioctl"
    EXEC = "exec"
    CREATE = "create"
    UNLINK = "unlink"
    MMAP = "mmap"


#: Each op's name, read by the denial path instead of ``op.value``.
RULE_OP_NAME = {op: op.value for op in RuleOp}


@dataclasses.dataclass(frozen=True)
class SackPermission:
    """A user-space-comprehensible permission (``CONTROL_CAR_DOORS``...)."""

    name: str
    description: str = ""

    def __post_init__(self):
        if not self.name or not self.name.replace("_", "").isalnum():
            raise ValueError(f"invalid permission name: {self.name!r}")


@dataclasses.dataclass(frozen=True)
class MacRule:
    """One MAC rule: decision + operation + object (+ optional filters).

    ``ioctl_cmds`` restricts an ioctl rule to specific commands (names are
    resolved against a symbol table at compile time; integers are accepted
    directly).  ``subject`` restricts the rule to tasks whose ``comm``
    matches — the kernel-side anchor for the paper's per-service
    permissions (e.g. only the rescue daemon gets door control).
    """

    decision: RuleDecision
    op: RuleOp
    path_glob: str
    ioctl_cmds: FrozenSet[str] = frozenset()
    subject: Optional[str] = None

    def __post_init__(self):
        if not self.path_glob.startswith("/"):
            raise ValueError(f"rule path must be absolute: {self.path_glob!r}")
        if self.ioctl_cmds and self.op is not RuleOp.IOCTL:
            raise ValueError("ioctl_cmds only makes sense on ioctl rules")
        compile_glob(self.path_glob)  # fail fast on malformed globs

    def to_text(self) -> str:
        parts = [self.decision.value, self.op.value, self.path_glob]
        if self.ioctl_cmds:
            parts.append("cmd=" + ",".join(sorted(self.ioctl_cmds)))
        if self.subject is not None:
            parts.append(f"subject={self.subject}")
        return " ".join(parts)


class SackPolicy:
    """A complete SACK policy (States/Permissions/State_Per/Per_Rules)."""

    def __init__(self, states: StateSpace, initial: str,
                 transitions: List[ssm_mod.TransitionRule],
                 permissions: Dict[str, SackPermission],
                 state_per: Dict[str, Set[str]],
                 per_rules: Dict[str, List[MacRule]],
                 guards: List[str],
                 targets: Optional[List[str]] = None,
                 name: str = "sack-policy",
                 failsafe: Optional[str] = None,
                 failsafe_deadline_ms: Optional[float] = None):
        self.name = name
        self.states = states
        self.initial = initial
        self.transitions = list(transitions)
        self.permissions = dict(permissions)
        self.state_per = {k: set(v) for k, v in state_per.items()}
        self.per_rules = {k: list(v) for k, v in per_rules.items()}
        self.guards = list(guards)
        #: AppArmor profile names the bridge rewrites (empty = all).
        self.targets = list(targets or [])
        #: ``failsafe <state> [after <ms>ms]``: the state the SSM degrades
        #: to on unrecoverable listener failure or (with a deadline) event
        #: staleness.  Most-restrictive by convention.
        self.failsafe = failsafe
        self.failsafe_deadline_ms = failsafe_deadline_ms

    # -- Algorithm 1's mapping functions -----------------------------------
    def permissions_for_state(self, state_name: str) -> Set[str]:
        """``P_i = f(SS_i)``: permissions active in *state_name*."""
        return set(self.state_per.get(state_name, set()))

    def rules_for_permission(self, perm_name: str) -> List[MacRule]:
        """``MR_k = g(P_j)``: MAC rules granted by *perm_name*."""
        return list(self.per_rules.get(perm_name, []))

    def rules_for_state(self, state_name: str) -> List[MacRule]:
        """The composed mapping ``g(f(SS_i))``."""
        rules: List[MacRule] = []
        for perm in sorted(self.permissions_for_state(state_name)):
            rules.extend(self.rules_for_permission(perm))
        return rules

    def build_ssm(self, history_size: int = 256
                  ) -> ssm_mod.SituationStateMachine:
        """Instantiate the runtime state machine this policy describes."""
        return ssm_mod.SituationStateMachine(
            self.states, self.transitions, self.initial,
            history_size=history_size, failsafe=self.failsafe)

    def rule_count(self) -> int:
        return sum(len(rules) for rules in self.per_rules.values())

    def summary(self) -> str:
        """Administrator-facing one-screen summary (for SACKfs reads)."""
        lines = [f"policy {self.name}",
                 f"initial {self.initial}",
                 f"states {len(self.states)}",
                 f"transitions {len(self.transitions)}",
                 f"permissions {len(self.permissions)}",
                 f"mac_rules {self.rule_count()}",
                 f"guards {len(self.guards)}"]
        if self.failsafe is not None:
            line = f"failsafe {self.failsafe}"
            if self.failsafe_deadline_ms is not None:
                line += f" deadline_ms {self.failsafe_deadline_ms:g}"
            lines.append(line)
        return "\n".join(lines) + "\n"
