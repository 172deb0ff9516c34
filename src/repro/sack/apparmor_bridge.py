"""SACK-enhanced AppArmor: the paper's second prototype (§III-E-3).

Here SACK does *not* sit on the per-access path at all — "the permission
check process for SACK-enhanced AppArmor is the same as that for the
original AppArmor" (§IV-B).  Instead, on every situation transition the
bridge rewrites the AppArmor profiles of the target services: SACK MAC
rules active in the new state are translated into AppArmor path rules
(tagged ``origin='sack'``) and the profiles are replaced in the live policy
store, the equivalent of ``apparmor_parser -r`` at transition time.

Fidelity note: AppArmor's file rules cannot filter individual ioctl
commands, so an ioctl rule with a ``cmd=`` list becomes plain write access
to the device node in this mode.  Independent SACK keeps the per-command
granularity; this asymmetry is inherent to the paper's design, and our
ablation E10 measures its cost side.
"""

from __future__ import annotations

import time
from typing import List, Optional

from ..apparmor.module import AppArmorLsm
from ..apparmor.profile import FilePerm, PathRule, Profile
from ..apparmor.globs import glob_match
from ..faults import points as fault_points
from ..faults.points import InjectedFault
from ..lsm.module import LsmModule
from .policy.compiler import compile_policy
from .policy.model import MacRule, RuleDecision, RuleOp, SackPolicy
from .ssm import SituationStateMachine, Transition

MODULE_NAME = "sack"

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


class SackAppArmorBridge(LsmModule):
    """SACK as a policy *administrator* for AppArmor.

    Registers as the ``sack`` LSM (so ``CONFIG_LSM="sack,apparmor"`` holds)
    but implements no decision hooks — enforcement is AppArmor's.
    """

    name = MODULE_NAME

    def __init__(self, apparmor: AppArmorLsm, fault_plan=None):
        self.apparmor = apparmor
        self.policy: Optional[SackPolicy] = None
        self.ssm: Optional[SituationStateMachine] = None
        self.ioctl_symbols: dict = {}
        self.update_count = 0
        self.rules_injected = 0
        self.fault_plan = fault_plan

    def _on_transition_bump_avc(self, _transition) -> None:
        self.bump_avc("transition")

    # -- policy lifecycle -----------------------------------------------------
    def load_policy(self, policy: SackPolicy, ioctl_symbols=None
                    ) -> SituationStateMachine:
        """Validate, activate, and apply *policy*'s initial state.

        A failed profile reload leaves the previous policy, SSM and
        profiles in force and re-raises.
        """
        started_ns = time.perf_counter_ns()
        # Compilation is for validation only in bridge mode; enforcement
        # data lives in AppArmor profiles.
        compiled = compile_policy(policy, ioctl_symbols=ioctl_symbols)
        previous = self.policy, self.ioctl_symbols
        self.policy = policy
        self.ioctl_symbols = dict(ioctl_symbols or {})
        try:
            self._apply_state(policy.initial)
        except Exception:
            # The apply is all-or-nothing, so restoring the policy the
            # live profiles were built from leaves the old one in force.
            self.policy, self.ioctl_symbols = previous
            raise
        self.ssm = policy.build_ssm()
        self.ssm.add_listener(self._on_transition)
        # Belt and braces with the PolicyDb subscription: even a
        # transition whose profile rewrite is a no-op moves the epoch.
        self.ssm.add_listener(self._on_transition_bump_avc)
        self.bump_avc("policy-load")
        self.audit("sack_policy_loaded",
                   f"bridge policy {policy.name!r} -> AppArmor")
        obs = getattr(self.kernel, "obs", None)
        if obs is not None:
            obs.attach_ssm(self.ssm, provider=self)
            obs.policy_load(
                policy.name, "apparmor",
                len(compiled.rulesets), compiled.total_rules(),
                time.perf_counter_ns() - started_ns,
                state_rule_counts={name: rs.rule_count
                                   for name, rs in
                                   compiled.rulesets.items()})
        return self.ssm

    @property
    def current_state(self) -> Optional[str]:
        return self.ssm.current_name if self.ssm is not None else None

    # -- transition handling ------------------------------------------------------
    def _on_transition(self, transition: Transition) -> None:
        self._apply_state(transition.to_state)

    def _target_profiles(self) -> List[Profile]:
        db = self.apparmor.policy
        names = self.policy.targets or db.profile_names()
        return [db.get(n) for n in names if db.get(n) is not None]

    def _rule_applies_to(self, rule: MacRule, profile: Profile) -> bool:
        if rule.subject is None:
            return True
        return glob_match(rule.subject, profile.name)

    def _apply_state(self, state_name: str) -> None:
        """Rewrite every target profile for *state_name* and reload it.

        The apply is all-or-nothing: every updated profile is computed
        first, then the live policy store is swapped profile by profile.
        The injectable reload failure fires *before* any mutation, so an
        SSM rollback after a bridge failure always finds the profiles
        still consistent with the previous state.
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
        obs = getattr(self.kernel, "obs", None)
        spans = obs.spans if obs is not None else None
        span = None
        if spans is not None:
            span = spans.start_span("apparmor.reload", stage="reload",
                                    attributes={"state": state_name})
        started_ns = time.perf_counter_ns() if obs is not None else 0
        try:
            rules = self.policy.rules_for_state(state_name)
            injected = 0
            staged: List[Profile] = []
            for profile in self._target_profiles():
                updated = profile.clone()
                updated.remove_rules_by_origin(SACK_ORIGIN)
                for rule in rules:
                    if self._rule_applies_to(rule, updated):
                        updated.add_rule(
                            mac_rule_to_path_rule(rule, self.ioctl_symbols))
                        injected += 1
                staged.append(updated)
            for updated in staged:
                self.apparmor.policy.replace_profile(updated)
        except Exception:
            if spans is not None:
                spans.end_span(span, status="error")
            raise
        self.update_count += 1
        self.rules_injected = injected
        if span is not None:
            span.attributes["profiles"] = len(staged)
            span.attributes["rules"] = injected
        if spans is not None:
            spans.end_span(span)
        if obs is not None:
            obs.metrics.histogram(
                "sack_bridge_apply_ns", {"backend": "apparmor"}).record(
                    time.perf_counter_ns() - started_ns,
                    trace_id=span.trace_id if span is not None else None)
        self.audit("sack_profiles_updated",
                   f"state={state_name} profiles="
                   f"{len(self._target_profiles())} rules={injected}")

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
                for r in rules if self._rule_applies_to(r, profile))
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
