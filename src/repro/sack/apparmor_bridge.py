"""SACK-enhanced AppArmor: the paper's second prototype (§III-E-3).

Here SACK does *not* sit on the per-access path at all — "the permission
check process for SACK-enhanced AppArmor is the same as that for the
original AppArmor" (§IV-B).  Instead, on every situation transition the
bridge rewrites the AppArmor profiles of the target services: SACK MAC
rules active in the new state are translated into AppArmor path rules
(tagged ``origin='sack'``) and the profiles are replaced in the live policy
store, the equivalent of ``apparmor_parser -r`` at transition time.

The translation of a (state, profile) pair depends only on the policy
text and the ioctl symbols, so it is done once per *host*: the table
lives on the :class:`~repro.sack.policy.compiler.CompiledPolicy` that
SACKfs shares through the host's policy cache, and every vehicle that
loads the policy reads it.  Each bridge keeps one staged profile set per
*state*, built on the state's first entry (clone each target, strip its
bridged rules, append the state's); re-entering the state installs the
kept set again.  Either way a transition is one
:meth:`~repro.apparmor.policydb.PolicyDb.swap_profiles`: one policy
revision, and no ``profile-reload`` epoch bump of its own — the SACK
front end's ``transition`` bump is the transition's one bump.  The kept
sets hold while the compile and the AppArmor policy revision are the ones
the bridge's last swap left; loading another policy or any profile (an
admin load, a bundle's profiles, a profile edited in place and loaded
again) drops them, and the next entry rebuilds on the new base.

Fidelity note: AppArmor's file rules cannot filter individual ioctl
commands, so an ioctl rule with a ``cmd=`` list becomes plain write access
to the device node in this mode.  Independent SACK keeps the per-command
granularity; this asymmetry is inherent to the paper's design, and our
ablation E10 measures its cost side.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

from ..apparmor.module import AppArmorLsm
from ..apparmor.profile import FilePerm, PathRule, Profile
from ..apparmor.globs import glob_match
from ..faults import points as fault_points
from ..faults.points import InjectedFault
from .module import SackModule
from .policy.compiler import CompiledPolicy
from .policy.model import MacRule, RuleDecision, RuleOp
from .ssm import SituationStateMachine, Transition

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

    def __init__(self, apparmor: AppArmorLsm, fault_plan=None):
        super().__init__()
        self.apparmor = apparmor
        self.update_count = 0
        self.rules_injected = 0
        self.fault_plan = fault_plan
        #: state -> (its staged target profiles, sack rules they carry),
        #: built on the state's first entry onto the current base.
        self._state_sets: Dict[str, Tuple[List[Profile], int]] = {}
        #: ``(compile, AppArmor revision)`` the last swap left: the kept
        #: sets hold while both are unchanged, so any profile load (an
        #: in-place edit loaded again included) or another policy's load
        #: drops them.
        self._kept_for: tuple = (None, None)

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
        translated at most once per host for the loaded compile."""
        table = self.compiled.bridge_rules
        key = (state_name, profile_name)
        rules = table.get(key)
        if rules is None:
            rules = table[key] = tuple(
                mac_rule_to_path_rule(rule, self.ioctl_symbols)
                for rule in self.policy.rules_for_state(state_name)
                if self._rule_applies_to(rule, profile_name))
        return rules

    # -- policy install and transitions -------------------------------------
    def _install(self, compiled: CompiledPolicy,
                 ssm: SituationStateMachine) -> None:
        self._apply_state(ssm.current_name)
        ssm.add_listener(self._on_transition)

    def _on_transition(self, transition: Transition) -> None:
        self._apply_state(transition.to_state)

    def _apply_state(self, state_name: str) -> None:
        """Install *state_name*'s rules into the target profiles, traced
        as one ``apparmor.reload`` span and timed into
        ``sack_bridge_apply_ns``.

        The injectable reload failure fires *before* the reload span opens
        and before any mutation, so an SSM rollback after a bridge failure
        always finds the profiles still consistent with the previous state.
        """
        obs = getattr(self.kernel, "obs", None)
        plan = self.fault_plan
        if plan is not None and plan.should_fail(
                fault_points.BRIDGE_RELOAD_FAIL,
                getattr(self.kernel.clock, "now_ns", 0)):
            if obs is not None:
                obs.fault_injected(fault_points.BRIDGE_RELOAD_FAIL)
            raise InjectedFault(fault_points.BRIDGE_RELOAD_FAIL,
                                f"profile reload failed entering "
                                f"{state_name!r}")
        if obs is None:
            self._install_state(state_name)
            return
        spans = obs.spans
        span = spans.start_span("apparmor.reload", stage="reload",
                                attributes={"state": state_name})
        started_ns = time.perf_counter_ns()
        try:
            applied = self._install_state(state_name)
        except Exception:
            spans.end_span(span, status="error")
            raise
        if span is not None:
            span.attributes.update(applied)
        spans.end_span(span)
        obs.metrics.histogram(
            "sack_bridge_apply_ns", {"backend": self.backend}).record(
                time.perf_counter_ns() - started_ns,
                trace_id=span.trace_id if span is not None else None)

    def _install_state(self, state_name: str) -> Dict[str, int]:
        """Stage and swap in *state_name*'s target profiles; returns the
        counts the reload span carries.  All-or-nothing: every updated
        profile is staged first, then the live policy store swaps them
        all in one step."""
        db = self.apparmor.policy
        if self._kept_for != (self.compiled, db.revision):
            self._state_sets = {}
        kept = self._state_sets.get(state_name)
        if kept is None:
            injected = 0
            staged: List[Profile] = []
            for profile in self._target_profiles():
                rules = self._sack_rules(state_name, profile.name)
                updated = profile.clone()
                updated.remove_rules_by_origin(SACK_ORIGIN)
                updated.path_rules.extend(rules)
                injected += len(rules)
                staged.append(updated)
            kept = staged, injected
        staged, injected = kept
        db.swap_profiles(staged)
        self._state_sets[state_name] = kept
        self._kept_for = (self.compiled, db.revision)
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
