"""The checker façade: policies in, verification report out.

``verify_policies`` is the one entry point everything else uses — the
``sackctl verify`` command, the OTA proof gate, the bench suite's
``verify`` workload, and the tests.  It builds the model (a revision
chain when given several policies), checks every property of the library
by exhaustive enumeration over the reachable product — complete here,
since the model is small and finite by construction — and folds
everything into a :class:`VerificationReport` with per-property results,
model-size stats, and exportable counterexamples.

A policy that fails to parse or compile is never checked: that is
reported as the synthetic property ``P0:compilable`` failing, so callers
(the proof gate above all) see exactly one shape of answer.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Dict, List, Optional, Sequence, Tuple

from .counterexample import Counterexample
from .properties import StaticProperty, static_properties, static_property

#: Synthetic property id for parse/compile failures.
COMPILABLE_ID = "P0:compilable"


@dataclasses.dataclass
class PropertyResult:
    """One property's verdict: pass/fail plus proof-effort accounting."""

    prop_id: str
    title: str
    passed: bool
    counterexamples: Tuple[Counterexample, ...] = ()
    checks: int = 0          # decision-oracle invocations for this proof
    elapsed_ns: int = 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "prop_id": self.prop_id,
            "title": self.title,
            "passed": self.passed,
            "counterexamples": [c.to_dict()
                                for c in self.counterexamples],
            "checks": self.checks,
            "elapsed_ns": self.elapsed_ns,
        }


@dataclasses.dataclass
class VerificationReport:
    """Everything one verification run produced."""

    policy_names: Tuple[str, ...]
    model_stats: Dict[str, int]
    results: List[PropertyResult]
    error: Optional[str] = None      # parse/compile failure, when any

    @property
    def ok(self) -> bool:
        return self.error is None and all(r.passed for r in self.results)

    @property
    def counterexamples(self) -> List[Counterexample]:
        return [c for r in self.results for c in r.counterexamples]

    @property
    def failed_properties(self) -> List[str]:
        failed = [r.prop_id for r in self.results if not r.passed]
        if self.error is not None:
            failed.insert(0, COMPILABLE_ID)
        return failed

    def to_dict(self) -> Dict[str, object]:
        return {
            "policies": list(self.policy_names),
            "ok": self.ok,
            "error": self.error,
            "model": dict(self.model_stats),
            "properties": [r.to_dict() for r in self.results],
        }

    def summary_lines(self) -> List[str]:
        names = ", ".join(self.policy_names) or "<none>"
        lines = [f"verify {names}"]
        if self.error is not None:
            lines.append(f"  FAIL {COMPILABLE_ID}: {self.error}")
        for result in self.results:
            word = "pass" if result.passed else "FAIL"
            line = (f"  {word} {result.prop_id}: {result.title} "
                    f"({result.checks} checks)")
            lines.append(line)
            for cex in result.counterexamples:
                lines.extend(f"  {text}" for text in cex.render())
        if self.model_stats:
            ms = self.model_stats
            lines.append(
                f"  model: {ms.get('states', 0)} states, "
                f"{ms.get('transitions', 0)} transitions, "
                f"{ms.get('revisions', 0)} revision(s), "
                f"{ms.get('subjects', 0)}x{ms.get('objects', 0)}x"
                f"{ms.get('ioctl_cmds', 0)} access grid, "
                f"{ms.get('checks', 0)} decisions checked")
        lines.append("  result: "
                     + ("all properties hold" if self.ok
                        else f"{len(self.failed_properties)} propert"
                             f"{'y' if len(self.failed_properties) == 1 else 'ies'}"
                             f" violated"))
        return lines


def _property_set(properties) -> List[StaticProperty]:
    if properties is None:
        return static_properties()
    resolved: List[StaticProperty] = []
    for prop in properties:
        resolved.append(prop if isinstance(prop, StaticProperty)
                        else static_property(prop))
    return resolved


def verify_policies(policies,
                    ioctl_symbols=None,
                    properties: Optional[Sequence] = None,
                    extra_subjects: Sequence[str] = (),
                    extra_objects: Sequence[str] = ()
                    ) -> VerificationReport:
    """Verify one policy or an OTA revision chain (oldest first).

    *policies* may be policy texts or parsed policies; *properties* may
    name registry entries (``"P2"``) or pass :class:`StaticProperty`
    objects directly.  Never raises for a bad policy — that comes back
    as a failing ``P0:compilable`` report.
    """
    from .model import build_model
    props = _property_set(properties)
    try:
        model = build_model(policies, ioctl_symbols=ioctl_symbols,
                            extra_subjects=extra_subjects,
                            extra_objects=extra_objects)
    except Exception as exc:
        names = []
        if isinstance(policies, (list, tuple)):
            names = [getattr(p, "name", f"policy{i}")
                     for i, p in enumerate(policies)]
        return VerificationReport(
            policy_names=tuple(names), model_stats={}, results=[],
            error=f"policy does not compile: {exc}")
    # Each property is checked over the whole model and charged the
    # decision-oracle calls and host time its proof took.
    results: List[PropertyResult] = []
    for prop in props:
        before = model.checks
        started = time.perf_counter_ns()
        counterexamples = tuple(prop.check(model))
        results.append(PropertyResult(
            prop_id=prop.prop_id, title=prop.title,
            passed=not counterexamples, counterexamples=counterexamples,
            checks=model.checks - before,
            elapsed_ns=time.perf_counter_ns() - started))
    return VerificationReport(
        policy_names=tuple(model.revisions[r].policy.name
                           for r in model.rev_order),
        model_stats=model.stats(), results=results)


def verify_policy(policy, **kwargs) -> VerificationReport:
    """Single-policy convenience wrapper over :func:`verify_policies`."""
    return verify_policies([policy], **kwargs)
