"""Policy compilation: from the declarative model to per-state rulesets.

The adaptive policy enforcer must answer "may *task* do *op* on *path*" in
O(rules-for-this-op) at every hook invocation, and swap rulesets in O(1) at
every transition.  The compiler therefore precomputes, for every state, the
composed mapping ``MR = g(f(SS))`` of Algorithm 1 with globs compiled and
ioctl command names resolved to integers.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ...apparmor.globs import compile_glob
from .checker import check_policy, has_errors
from .model import MacRule, RuleDecision, RuleOp, SackPolicy


class PolicyCompileError(ValueError):
    """Raised when a policy cannot be compiled (errors, bad symbols)."""


@dataclasses.dataclass
class CompiledRule:
    """A MacRule with matchers resolved for the hot path."""

    source: MacRule
    matcher: object            # compiled path regex
    cmds: FrozenSet[int]       # empty = any command
    subject_matcher: Optional[object]  # compiled comm glob, None = any

    def matches(self, path: str, comm: str, cmd: Optional[int]) -> bool:
        if self.matcher.match(path) is None:
            return False
        if self.subject_matcher is not None \
                and self.subject_matcher.match(comm) is None:
            return False
        if self.cmds and (cmd is None or cmd not in self.cmds):
            return False
        return True


class CompiledRuleset:
    """All rules active in one situation state, indexed by operation."""

    def __init__(self, state_name: str,
                 guard_matcher: Optional[object] = None):
        self.state_name = state_name
        # All guards combined into one automaton (None: the policy has
        # none): the common case, an access to an ungoverned path, costs
        # a single regex match.
        self._guard_matcher = guard_matcher
        self.deny_by_op: Dict[RuleOp, List[CompiledRule]] = {}
        self.allow_by_op: Dict[RuleOp, List[CompiledRule]] = {}
        self.rule_count = 0

    def add(self, rule: CompiledRule) -> None:
        table = (self.deny_by_op
                 if rule.source.decision is RuleDecision.DENY
                 else self.allow_by_op)
        table.setdefault(rule.source.op, []).append(rule)
        self.rule_count += 1

    def governs(self, path: str) -> bool:
        """Does any guard cover *path*?  Ungoverned paths are allowed."""
        matcher = self._guard_matcher
        return matcher is not None and matcher.match(path) is not None

    def check(self, op: RuleOp, path: str, comm: str,
              cmd: Optional[int] = None) -> bool:
        """The access decision for this state (True = allow).

        Deny rules always win; governed paths default-deny; ungoverned
        paths are outside SACK's scope and allowed.
        """
        denies = self.deny_by_op.get(op)
        if denies:
            for rule in denies:
                if rule.matches(path, comm, cmd):
                    return False
        if not self.governs(path):
            return True
        for rule in self.allow_by_op.get(op, ()):
            if rule.matches(path, comm, cmd):
                return True
        return False


class _SharedMemo(dict):
    """A memo of pure results: a deep copy of a world (a fleet
    checkpoint) keeps reading it instead of copying it."""

    def __deepcopy__(self, memo) -> "_SharedMemo":
        return self


class CompiledPolicy:
    """Per-state compiled rulesets plus the source policy.

    A host's :class:`~repro.lsm.policycache.PolicyCache` shares one
    instance among every world that loads the same text, so it is
    read-only but for :attr:`bridge_rules`, a memo of pure translations.
    """

    def __init__(self, policy: SackPolicy,
                 rulesets: Dict[str, CompiledRuleset]):
        self.policy = policy
        self.rulesets = rulesets
        #: The AppArmor bridge's path rules, translated from this policy
        #: (and the ioctl symbols it was compiled with) on first use and
        #: shared by every world that loads it:
        #: ``(state, target) -> rules``.
        self.bridge_rules: Dict[tuple, tuple] = _SharedMemo()

    def ruleset_for(self, state_name: str) -> CompiledRuleset:
        try:
            return self.rulesets[state_name]
        except KeyError:
            raise KeyError(f"no compiled ruleset for state "
                           f"{state_name!r}") from None

    def total_rules(self) -> int:
        return sum(rs.rule_count for rs in self.rulesets.values())


def _resolve_cmds(rule: MacRule,
                  symbols: Mapping[str, int]) -> FrozenSet[int]:
    resolved = set()
    for token in rule.ioctl_cmds:
        if token in symbols:
            resolved.add(symbols[token])
        elif token.isdigit():
            resolved.add(int(token))
        else:
            raise PolicyCompileError(
                f"rule '{rule.to_text()}' references unknown ioctl "
                f"command {token!r}; pass it in ioctl_symbols")
    return frozenset(resolved)


def compile_rule(rule: MacRule,
                 symbols: Mapping[str, int]) -> CompiledRule:
    subject_matcher = (compile_glob(rule.subject)
                       if rule.subject is not None else None)
    return CompiledRule(source=rule,
                        matcher=compile_glob(rule.path_glob),
                        cmds=_resolve_cmds(rule, symbols),
                        subject_matcher=subject_matcher)


def compile_policy(policy: SackPolicy,
                   ioctl_symbols: Optional[Mapping[str, int]] = None,
                   strict: bool = True) -> CompiledPolicy:
    """Compile *policy*; with ``strict`` the checker must find no errors."""
    diags = check_policy(policy)
    if strict and has_errors(diags):
        errors = "; ".join(str(d) for d in diags
                           if d.severity.value == "error")
        raise PolicyCompileError(f"policy {policy.name!r} has errors: "
                                 f"{errors}")
    symbols = dict(ioctl_symbols or {})
    guard_matcher = None
    if len(policy.guards) == 1:
        guard_matcher = compile_glob(policy.guards[0])
    elif policy.guards:
        # Brace alternation fuses all guards into a single automaton.
        guard_matcher = compile_glob("{" + ",".join(policy.guards) + "}")

    rulesets: Dict[str, CompiledRuleset] = {}
    # Compile each distinct rule once, then share across states.
    cache: Dict[Tuple[str, str], CompiledRule] = {}
    for state in policy.states:
        ruleset = CompiledRuleset(state.name, guard_matcher)
        for perm in sorted(policy.permissions_for_state(state.name)):
            for rule in policy.rules_for_permission(perm):
                key = (perm, rule.to_text())
                compiled = cache.get(key)
                if compiled is None:
                    compiled = compile_rule(rule, symbols)
                    cache[key] = compiled
                ruleset.add(compiled)
        rulesets[state.name] = ruleset
    return CompiledPolicy(policy, rulesets)
