"""SACK-enhanced AppArmor: the paper's second prototype (§III-E-3).

Here SACK does *not* sit on the per-access path at all — "the permission
check process for SACK-enhanced AppArmor is the same as that for the
original AppArmor" (§IV-B).  Instead, on every situation transition the
bridge rewrites the AppArmor profiles of the target services: SACK MAC
rules active in the new state are translated into AppArmor path rules
(tagged ``origin='sack'``) and the profiles are replaced in the live policy
store, the equivalent of ``apparmor_parser -r`` at transition time.  The
translation of a (state, profile) pair depends only on the loaded policy,
so it is done once per policy and kept; a transition then swaps every
target profile in one :meth:`~repro.apparmor.policydb.PolicyDb.replace_profiles`.

Fidelity note: AppArmor's file rules cannot filter individual ioctl
commands, so an ioctl rule with a ``cmd=`` list becomes plain write access
to the device node in this mode.  Independent SACK keeps the per-command
granularity; this asymmetry is inherent to the paper's design, and our
ablation E10 measures its cost side.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..apparmor.module import AppArmorLsm
from ..apparmor.profile import FilePerm, PathRule, Profile
from ..apparmor.globs import glob_match
from ..faults import points as fault_points
from ..faults.points import InjectedFault
from .module import SackModule
from .policy.model import MacRule, RuleDecision, RuleOp

#: Provenance tag on every AppArmor rule the bridge injects.
SACK_ORIGIN = "sack"

_OP_TO_PERMS = {
    RuleOp.READ: FilePerm.READ,
    RuleOp.WRITE: FilePerm.WRITE,
    RuleOp.CREATE: FilePerm.WRITE,
    RuleOp.UNLINK: FilePerm.WRITE,
    RuleOp.EXEC: FilePerm.EXEC,
    RuleOp.MMAP: FilePerm.MMAP,
}


def _ioctl_rule_perms(rule: MacRule,
                      symbols) -> FilePerm:
    """AppArmor permission an ioctl rule needs.

    AppArmor cannot filter individual commands, but it distinguishes the
    _IOC direction: a rule covering only read-direction commands maps to
    read access; anything state-changing (or unrestricted) maps to write.
    """
    from ..kernel.devices import ioctl_is_write
    if not rule.ioctl_cmds:
        return FilePerm.WRITE
    resolved = []
    for token in rule.ioctl_cmds:
        if token in symbols:
            resolved.append(symbols[token])
        elif token.isdigit():
            resolved.append(int(token))
        else:
            return FilePerm.WRITE  # unknown command: be conservative
    if any(ioctl_is_write(cmd) for cmd in resolved):
        return FilePerm.WRITE
    return FilePerm.READ


def mac_rule_to_path_rule(rule: MacRule, symbols=None) -> PathRule:
    """Translate one SACK MAC rule into an AppArmor path rule."""
    if rule.op is RuleOp.IOCTL:
        perms = _ioctl_rule_perms(rule, symbols or {})
    else:
        perms = _OP_TO_PERMS[rule.op]
    return PathRule(rule.path_glob, perms,
                    deny=rule.decision is RuleDecision.DENY,
                    origin=SACK_ORIGIN)


class SackAppArmorBridge(SackModule):
    """SACK as a policy *administrator* for AppArmor.

    Registers as the ``sack`` LSM (so ``CONFIG_LSM="sack,apparmor"`` holds)
    but implements no decision hooks — enforcement is AppArmor's.
    """

    backend = "apparmor"
    loaded_audit = "bridge policy {name!r} -> AppArmor"
    applied_audit = "sack_profiles_updated"

    def __init__(self, apparmor: AppArmorLsm, fault_plan=None):
        super().__init__()
        self.apparmor = apparmor
        self.update_count = 0
        self.rules_injected = 0
        self.fault_plan = fault_plan
        #: ``(state, profile name)`` -> that profile's sack rules in that
        #: state, for the policy and symbols in :attr:`_translated_for`.
        self._translated: Dict[Tuple[str, str], Tuple[PathRule, ...]] = {}
        self._translated_for: tuple = (None, None)

    # -- transition handling ------------------------------------------------------
    def _target_profiles(self) -> List[Profile]:
        db = self.apparmor.policy
        names = self.policy.targets or db.profile_names()
        profiles = [db.get(n) for n in names]
        return [p for p in profiles if p is not None]

    def _rule_applies_to(self, rule: MacRule, profile_name: str) -> bool:
        if rule.subject is None:
            return True
        return glob_match(rule.subject, profile_name)

    def _sack_rules(self, state_name: str,
                    profile_name: str) -> Tuple[PathRule, ...]:
        """The path rules *state_name* injects into *profile_name*,
        translated at most once per loaded policy."""
        loaded = (self.policy, self.ioctl_symbols)
        if self._translated_for != loaded:
            self._translated = {}
            self._translated_for = loaded
        key = (state_name, profile_name)
        rules = self._translated.get(key)
        if rules is None:
            rules = tuple(
                mac_rule_to_path_rule(rule, self.ioctl_symbols)
                for rule in self.policy.rules_for_state(state_name)
                if self._rule_applies_to(rule, profile_name))
            self._translated[key] = rules
        return rules

    def _apply_state(self, state_name: str) -> None:
        """Rewrite every target profile for *state_name* and reload it.

        The injectable reload failure fires *before* the reload span opens
        and before any mutation, so an SSM rollback after a bridge failure
        always finds the profiles still consistent with the previous state.
        """
        plan = self.fault_plan
        if plan is not None and plan.should_fail(
                fault_points.BRIDGE_RELOAD_FAIL,
                getattr(self.kernel.clock, "now_ns", 0)):
            obs = getattr(self.kernel, "obs", None)
            if obs is not None:
                obs.fault_injected(fault_points.BRIDGE_RELOAD_FAIL)
            raise InjectedFault(fault_points.BRIDGE_RELOAD_FAIL,
                                f"profile reload failed entering "
                                f"{state_name!r}")
        super()._apply_state(state_name)

    def _install_state(self, state_name: str) -> Dict[str, int]:
        """All-or-nothing: every updated profile is staged first, then
        the live policy store swaps them all in one step."""
        injected = 0
        staged: List[Profile] = []
        for profile in self._target_profiles():
            rules = self._sack_rules(state_name, profile.name)
            updated = profile.clone()
            updated.remove_rules_by_origin(SACK_ORIGIN)
            updated.path_rules.extend(rules)
            injected += len(rules)
            staged.append(updated)
        self.apparmor.policy.replace_profiles(staged)
        self.update_count += 1
        self.rules_injected = injected
        return {"profiles": len(staged), "rules": injected}

    def verify_consistency(self) -> List[str]:
        """Cross-check live profiles against the SSM's current state.

        For every target profile, the sack-origin rules present in the
        live AppArmor store must be exactly the translation of the MAC
        rules active in the SSM's current state.  Returns a list of
        discrepancy descriptions (empty = consistent) — the chaos
        harness's strongest invariant: no injected failure may leave
        enforcement and situation tracking disagreeing.
        """
        problems: List[str] = []
        if self.policy is None or self.ssm is None:
            return problems
        def key(rule: PathRule):
            return (rule.glob, rule.perms.value, rule.deny)

        rules = self.policy.rules_for_state(self.ssm.current_name)
        for profile in self._target_profiles():
            expected = sorted(
                key(mac_rule_to_path_rule(r, self.ioctl_symbols))
                for r in rules if self._rule_applies_to(r, profile.name))
            live = sorted(key(r) for r in profile.path_rules
                          if r.origin == SACK_ORIGIN)
            if expected != live:
                problems.append(
                    f"profile {profile.name!r}: live sack rules disagree "
                    f"with state {self.ssm.current_name!r} "
                    f"({len(live)} live vs {len(expected)} expected)")
        return problems

    def stats(self) -> dict:
        return {
            "state": self.current_state,
            "profile_updates": self.update_count,
            "rules_injected": self.rules_injected,
            "apparmor_revision": self.apparmor.policy.revision,
        }
