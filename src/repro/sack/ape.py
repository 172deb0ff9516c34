"""The adaptive policy enforcer (APE) — paper §III-E, Algorithm 1.

The APE owns the compiled per-state rulesets and a pointer to the ruleset
for the *current* situation state.  It subscribes to the SSM: on every
transition it swaps the pointer (``MR_current = g(f(SS_current))``), which
is O(1) because the compiler precomputed the composition.  Access checks
then consult only the current ruleset.
"""

from __future__ import annotations

from typing import Optional

from .policy.compiler import CompiledPolicy, CompiledRuleset
from .policy.model import RuleOp
from .ssm import SituationStateMachine, Transition


class AdaptivePolicyEnforcer:
    """Maps the current situation state to enforceable MAC rules."""

    def __init__(self, compiled: CompiledPolicy,
                 ssm: SituationStateMachine):
        self.compiled = compiled
        self.ssm = ssm
        self._current: CompiledRuleset = compiled.ruleset_for(
            ssm.current_name)
        self.remap_count = 0
        self.check_count = 0
        self.deny_count = 0
        ssm.add_listener(self._on_transition)

    # -- Algorithm 1: the mapping update -------------------------------------
    def _on_transition(self, transition: Transition) -> None:
        obs = self.ssm.obs
        spans = obs.spans if obs is not None else None
        span = None
        if spans is not None:
            span = spans.start_span(
                "ape.remap", stage="remap",
                attributes={
                    "to": transition.to_state,
                    "encoding": self.ssm.states.encoding_of(
                        transition.to_state)})
        try:
            self._current = self.compiled.ruleset_for(transition.to_state)
            if span is not None:
                # The State → Permission → MAC-rules expansion this swap
                # installed, as precomputed by the compiler.
                span.attributes["rules"] = self._current.rule_count
        finally:
            if spans is not None:
                spans.end_span(span)
        self.remap_count += 1

    @property
    def current_ruleset(self) -> CompiledRuleset:
        return self._current

    @property
    def current_state(self) -> str:
        return self._current.state_name

    # -- the enforcement query (hot path) -------------------------------------
    def check(self, op: RuleOp, path: str, comm: str,
              cmd: Optional[int] = None) -> bool:
        """May a task named *comm* perform *op* on *path* right now?"""
        self.check_count += 1
        allowed = self._current.check(op, path, comm, cmd)
        if not allowed:
            self.deny_count += 1
        return allowed

    def stats(self) -> dict:
        return {
            "state": self.current_state,
            "remaps": self.remap_count,
            "checks": self.check_count,
            "denials": self.deny_count,
        }
