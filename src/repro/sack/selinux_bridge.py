"""SACK-enhanced SELinux: the TE-backend counterpart of the AppArmor
bridge.

The paper's policy design explicitly "separates policy and implementation
to be compatible with different enforcement approaches" (§III-D).  This
bridge demonstrates that claim against a type-enforcement backend: on
every situation transition it rewrites the SELinux access-vector table:
the SACK MAC rules active in the new state are translated into ``allow``
rules (tagged ``origin='sack'``) and swapped in as one
:meth:`~repro.selinux.policy.SelinuxPolicy.replace_origin`, one policy
revision that is checked whole before anything changes.  The next check
reads the new table.

Translation notes (fidelity):

* a rule's object type comes from the SELinux policy's file contexts
  (the label its path would carry);
* ``subject=`` maps to a source *domain* through ``subject_domains``;
  subject-less rules apply to every listed target domain;
* TE is allow-only, so SACK ``deny`` rules cannot be translated; the
  bridge refuses policies that contain them (use independent SACK or the
  AppArmor bridge for deny semantics);
* per-ioctl-command filtering is lost (TE's ``ioctl`` permission is not
  command-granular) — same trade-off as the AppArmor bridge.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional

from ..selinux.module import SelinuxLsm
from ..selinux.policy import AvRule
from .module import SackModule
from .policy.model import MacRule, RuleDecision, RuleOp, SackPolicy

#: Provenance tag on every AV rule the bridge injects.
SACK_ORIGIN = "sack"

_OP_TO_PERM = {
    RuleOp.READ: "read",
    RuleOp.WRITE: "write",
    RuleOp.IOCTL: "ioctl",
    RuleOp.EXEC: "execute",
    RuleOp.CREATE: "create",
    RuleOp.UNLINK: "unlink",
    RuleOp.MMAP: "map",
}


class SackSelinuxBridgeError(ValueError):
    """Raised when a SACK policy cannot be mapped onto TE."""


def _probe_path(glob: str) -> str:
    """Literal prefix of a glob, for resolving its file-context type."""
    probe = glob
    for wildcard in ("*", "?", "[", "{"):
        idx = probe.find(wildcard)
        if idx != -1:
            probe = probe[:idx]
    return probe.rstrip("/") or "/"


class SackSelinuxBridge(SackModule):
    """SACK as a policy administrator for SELinux."""

    backend = "selinux"

    def __init__(self, selinux: SelinuxLsm,
                 subject_domains: Optional[Mapping[str, str]] = None):
        """*subject_domains* maps SACK subject names (task comms) to the
        SELinux domains that confine them."""
        super().__init__()
        self.selinux = selinux
        self.subject_domains: Dict[str, str] = dict(subject_domains or {})
        self.update_count = 0
        self.rules_injected = 0

    def _validate(self, policy: SackPolicy) -> None:
        for rules in policy.per_rules.values():
            for rule in rules:
                if rule.decision is RuleDecision.DENY:
                    raise SackSelinuxBridgeError(
                        f"TE is allow-only; cannot translate "
                        f"'{rule.to_text()}'")
                # Validate the subject->domain mapping for every rule up
                # front, not lazily at the first transition that needs it.
                self._domains_for(rule)

    # -- translation -------------------------------------------------------------
    def _domains_for(self, rule: MacRule) -> List[str]:
        if rule.subject is not None:
            domain = self.subject_domains.get(rule.subject)
            if domain is None:
                raise SackSelinuxBridgeError(
                    f"no SELinux domain mapped for subject "
                    f"{rule.subject!r}")
            return [domain]
        return sorted(set(self.subject_domains.values()))

    def translate(self, rule: MacRule) -> List[AvRule]:
        """One SACK MAC rule -> the TE allow rules implementing it.

        The object class depends on the node type behind the path, which
        the bridge cannot know from the glob alone — so it emits the rule
        for both file classes (their permission vocabularies coincide for
        every op SACK uses).
        """
        te_policy = self.selinux.policy
        target = te_policy.context_for_path(_probe_path(rule.path_glob))
        perm = _OP_TO_PERM[rule.op]
        return [AvRule(source=domain, target=target.type, tclass=tclass,
                       perms=frozenset({perm}), origin=SACK_ORIGIN)
                for domain in self._domains_for(rule)
                for tclass in ("file", "chr_file")]

    # -- transition handling ------------------------------------------------------
    def _install_state(self, state_name: str) -> Dict[str, int]:
        """All-or-nothing: the state's whole rule set is translated,
        then swapped in as one policy revision."""
        te_policy = self.selinux.policy
        rules = [av_rule
                 for rule in self.policy.rules_for_state(state_name)
                 for av_rule in self.translate(rule)]
        te_policy.replace_origin(SACK_ORIGIN, rules)
        self.update_count += 1
        self.rules_injected = len(rules)
        return {"av_rules": len(rules), "revision": te_policy.revision}

    def stats(self) -> dict:
        return {
            "state": self.current_state,
            "av_updates": self.update_count,
            "rules_injected": self.rules_injected,
            "selinux_revision": self.selinux.policy.revision,
        }
