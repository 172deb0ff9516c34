"""The finite-state model the checker enumerates.

The model is the product of the **policy revision chain** (one revision
per policy — a single loaded policy, or a committed policy followed by a
staged OTA bundle) and each revision's **situation state graph**:

* ``event`` edges come from the SSM transition rules (with ``'*'``
  wildcard sources expanded, self-transitions dropped — the SSM ignores
  them);
* ``failsafe`` edges model the watchdog / rollback degradation path: the
  policy-declared failsafe state is reachable from *every* state within
  the declared staleness bound;
* ``ota`` edges connect every state of revision *k* to the initial state
  of revision *k+1* (an applied bundle builds a fresh SSM).

The decision oracle at each node is the **production compiler's** ruleset
(:meth:`~repro.sack.policy.compiler.CompiledRuleset.check`), not a
re-implementation — the model checker proves facts about the exact code
the hot path runs.  The access grid (subjects × objects × operations ×
ioctl commands) is derived from the policy text itself: literal rule
subjects and paths, witness paths for globs and guards, and every ioctl
command the policy or the probe symbols name.

The space is small and enumerable by construction (states × revisions is
bounded by the policy, and the grid by its rules), which is what makes
the checker's exhaustive enumeration complete; see
``docs/verification.md``.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from ..apparmor.globs import glob_match
from ..sack.policy.compiler import CompiledPolicy, compile_policy
from ..sack.policy.model import RuleOp, SackPolicy
from ..sack.ssm import ANY_STATE, FAILSAFE_EVENT
from .counterexample import (STEP_EVENT, STEP_FAILSAFE, STEP_OTA,
                             AccessRequest, Counterexample, TraceStep)

#: Probe subject that matches no ``subject=`` rule glob in any shipped
#: policy — the witness for "an arbitrary unnamed application".
WITNESS_SUBJECT = "probe_app"

#: Probe path no sane policy guards — the witness for "outside SACK's
#: scope", where independent SACK must allow by design.
UNGOVERNED_PROBE = "/tmp/verify_probe"

_GLOB_CHARS = "*?[{"


def _is_literal(text: str) -> bool:
    return not any(ch in text for ch in _GLOB_CHARS)


def _glob_witness(glob: str) -> Optional[str]:
    """A concrete path matching *glob*, or None when none can be built."""
    if _is_literal(glob):
        return glob
    if "[" in glob or "{" in glob:
        return None
    witness = glob.replace("**", "probe").replace("*", "x")
    witness = witness.replace("?", "q")
    return witness if glob_match(glob, witness) else None


@dataclasses.dataclass(frozen=True)
class ModelNode:
    """One point of the reachable (revision, state) product."""

    revision: str
    state: str

    def describe(self) -> str:
        return f"{self.state} [{self.revision}]"


@dataclasses.dataclass(frozen=True)
class ModelEdge:
    """One transition of the product graph."""

    kind: str       # STEP_EVENT | STEP_FAILSAFE | STEP_OTA
    label: str
    source: ModelNode
    target: ModelNode


@dataclasses.dataclass
class Revision:
    """One policy revision: source, compiled form, staged profiles."""

    rev_id: str
    policy: SackPolicy
    compiled: CompiledPolicy
    profiles: Dict[str, str] = dataclasses.field(default_factory=dict)

    @property
    def state_names(self) -> List[str]:
        return [s.name for s in self.policy.states]


class PolicyModel:
    """The explicit finite-state model, plus its access grid."""

    def __init__(self, revisions: Sequence[Revision],
                 ioctl_symbols: Mapping[str, int],
                 subjects: Sequence[str], objects: Sequence[str],
                 ioctl_cmds: Mapping[str, int]):
        self.revisions: Dict[str, Revision] = {r.rev_id: r
                                               for r in revisions}
        self.rev_order: Tuple[str, ...] = tuple(r.rev_id for r in revisions)
        self.ioctl_symbols = dict(ioctl_symbols)
        self.subjects: Tuple[str, ...] = tuple(subjects)
        self.objects: Tuple[str, ...] = tuple(objects)
        #: Modeled ioctl commands, name -> resolved number.
        self.ioctl_cmds: Dict[str, int] = dict(ioctl_cmds)
        self.cmd_names: Dict[int, str] = {v: k
                                          for k, v in ioctl_cmds.items()}
        #: Decision-oracle invocations so far (model-size accounting).
        self.checks = 0
        self.initial = ModelNode(revisions[0].rev_id,
                                 revisions[0].policy.initial)
        self.nodes: List[ModelNode] = []
        self.edges: Dict[ModelNode, List[ModelEdge]] = {}
        self._preds: Dict[ModelNode, ModelEdge] = {}
        self._explore()

    # -- construction -------------------------------------------------------
    def _revision_edges(self, rev: Revision,
                        source: ModelNode) -> List[ModelEdge]:
        edges: List[ModelEdge] = []
        policy = rev.policy
        for rule in policy.transitions:
            if rule.from_state not in (source.state, ANY_STATE):
                continue
            if rule.to_state == source.state:
                continue  # the SSM ignores self-transitions
            edges.append(ModelEdge(
                STEP_EVENT, rule.event, source,
                ModelNode(rev.rev_id, rule.to_state)))
        if policy.failsafe is not None \
                and policy.failsafe != source.state:
            edges.append(ModelEdge(
                STEP_FAILSAFE, FAILSAFE_EVENT, source,
                ModelNode(rev.rev_id, policy.failsafe)))
        idx = self.rev_order.index(rev.rev_id)
        if idx + 1 < len(self.rev_order):
            nxt = self.revisions[self.rev_order[idx + 1]]
            edges.append(ModelEdge(
                STEP_OTA, f"apply {nxt.rev_id}", source,
                ModelNode(nxt.rev_id, nxt.policy.initial)))
        return edges

    def _explore(self) -> None:
        """BFS over the product graph from the initial node."""
        seen = {self.initial}
        frontier = [self.initial]
        self.nodes.append(self.initial)
        while frontier:
            node = frontier.pop(0)
            rev = self.revisions[node.revision]
            out = self._revision_edges(rev, node)
            self.edges[node] = out
            for edge in out:
                if edge.target not in seen:
                    seen.add(edge.target)
                    self._preds[edge.target] = edge
                    self.nodes.append(edge.target)
                    frontier.append(edge.target)

    # -- queries ------------------------------------------------------------
    def nodes_of(self, rev_id: str) -> List[ModelNode]:
        return [n for n in self.nodes if n.revision == rev_id]

    def ruleset(self, node: ModelNode):
        return self.revisions[node.revision].compiled.ruleset_for(
            node.state)

    def decision(self, node: ModelNode, subject: str, path: str,
                 op: RuleOp, cmd: Optional[int] = None) -> bool:
        """The production decision oracle at *node* (True = allow)."""
        self.checks += 1
        return self.ruleset(node).check(op, path, subject, cmd)

    def trace_to(self, node: ModelNode) -> Tuple[TraceStep, ...]:
        """Shortest transition sequence from the initial node."""
        steps: List[TraceStep] = []
        cursor = node
        while cursor != self.initial:
            edge = self._preds[cursor]
            steps.append(TraceStep(
                kind=edge.kind, label=edge.label,
                from_state=edge.source.state, to_state=edge.target.state,
                revision=edge.target.revision))
            cursor = edge.source
        steps.reverse()
        return tuple(steps)

    def counterexample(self, property_id: str, node: ModelNode,
                       expected: str, actual: str, detail: str,
                       request: Optional[AccessRequest] = None
                       ) -> Counterexample:
        return Counterexample(
            property_id=property_id, revision=node.revision,
            state=node.state, trace=self.trace_to(node),
            expected=expected, actual=actual, detail=detail,
            request=request)

    def emergency_states(self, rev_id: str,
                         events: Iterable[str]) -> set:
        """States of *rev_id* entered by *events* or by degradation."""
        rev = self.revisions[rev_id]
        reachable = {n.state for n in self.nodes_of(rev_id)}
        states = set()
        for rule in rev.policy.transitions:
            if rule.event in events and rule.to_state in reachable:
                states.add(rule.to_state)
        if rev.policy.failsafe is not None \
                and rev.policy.failsafe in reachable:
            states.add(rev.policy.failsafe)
        return states

    def stats(self) -> Dict[str, int]:
        return {
            "revisions": len(self.revisions),
            "states": len(self.nodes),
            "transitions": sum(len(v) for v in self.edges.values()),
            "subjects": len(self.subjects),
            "objects": len(self.objects),
            "ioctl_cmds": len(self.ioctl_cmds),
            "checks": self.checks,
        }


def _default_ioctl_symbols() -> Dict[str, int]:
    # Lazy: repro.verify must stay importable from the layers below
    # repro.vehicle (the chaos harness imports the property registry).
    from ..vehicle.devices import IOCTL_SYMBOLS
    return dict(IOCTL_SYMBOLS)


def _derive_subjects(policies: Sequence[SackPolicy],
                     extra: Sequence[str]) -> List[str]:
    subjects = {WITNESS_SUBJECT}
    subjects.update(extra)
    for policy in policies:
        for state in policy.states:
            for rule in policy.rules_for_state(state.name):
                if rule.subject is not None and _is_literal(rule.subject):
                    subjects.add(rule.subject)
    return sorted(subjects)


def _derive_objects(policies: Sequence[SackPolicy],
                    extra: Sequence[str]) -> List[str]:
    objects = {UNGOVERNED_PROBE}
    objects.update(extra)
    for policy in policies:
        globs = list(policy.guards)
        for state in policy.states:
            globs.extend(rule.path_glob
                         for rule in policy.rules_for_state(state.name))
        for glob in globs:
            witness = _glob_witness(glob)
            if witness is not None:
                objects.add(witness)
    return sorted(objects)


def _derive_cmds(policies: Sequence[SackPolicy],
                 symbols: Mapping[str, int]) -> Dict[str, int]:
    cmds = dict(symbols)
    for policy in policies:
        for state in policy.states:
            for rule in policy.rules_for_state(state.name):
                for token in rule.ioctl_cmds:
                    if token in cmds:
                        continue
                    if token.isdigit():
                        cmds[token] = int(token)
    return cmds


def build_model(policies, ioctl_symbols: Optional[Mapping[str, int]] = None,
                profiles: Optional[Sequence[Dict[str, str]]] = None,
                extra_subjects: Sequence[str] = (),
                extra_objects: Sequence[str] = ()) -> PolicyModel:
    """Build the model for one policy or a revision chain.

    *policies* is a policy text, a :class:`SackPolicy`, or a sequence of
    either (the OTA revision chain, oldest first).  Parse and compile
    errors propagate — an uncompilable policy has no model, and the
    checker reports that as its own failure.
    """
    from ..sack.policy import parse_policy
    if isinstance(policies, (str, SackPolicy)):
        policies = [policies]
    if not policies:
        raise ValueError("build_model needs at least one policy")
    symbols = (dict(ioctl_symbols) if ioctl_symbols is not None
               else _default_ioctl_symbols())
    parsed: List[SackPolicy] = [
        parse_policy(p) if isinstance(p, str) else p for p in policies]
    revisions = []
    for i, policy in enumerate(parsed):
        rev_profiles = {}
        if profiles is not None and i < len(profiles):
            rev_profiles = dict(profiles[i] or {})
        revisions.append(Revision(
            rev_id=f"rev{i}:{policy.name}", policy=policy,
            compiled=compile_policy(policy, ioctl_symbols=symbols),
            profiles=rev_profiles))
    return PolicyModel(
        revisions, symbols,
        subjects=_derive_subjects(parsed, extra_subjects),
        objects=_derive_objects(parsed, extra_objects),
        ioctl_cmds=_derive_cmds(parsed, symbols))
