"""The OTA proof gate: no bundle ships unless its policy verifies.

The fleet's delivery path already refuses unsigned and tampered bundles;
this adds the semantic gate on top — a *validly signed* bundle whose
policy violates any static safety property is refused fleet-wide, before
the canary wave ever sees it.  Decisions are cached by policy digest, so
staging the same bundle to ten thousand vehicles proves it once.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Optional, Sequence, Tuple

from .checker import VerificationReport, verify_policies


@dataclasses.dataclass
class GateDecision:
    """The proof gate's verdict on one policy revision."""

    passed: bool
    failed_properties: Tuple[str, ...]
    summary: str
    report: Optional[VerificationReport] = None

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "failed_properties": list(self.failed_properties),
            "summary": self.summary,
        }


class ProofGate:
    """Policy-revision admission control backed by the model checker."""

    def __init__(self, properties: Optional[Sequence] = None,
                 ioctl_symbols=None, enabled: bool = True):
        self.properties = properties
        self.ioctl_symbols = ioctl_symbols
        self.enabled = enabled
        self.evaluations = 0
        self.refusals = 0
        self._cache: Dict[str, GateDecision] = {}

    def _verify(self, policy_text: str) -> GateDecision:
        report = verify_policies(
            policy_text, ioctl_symbols=self.ioctl_symbols,
            properties=self.properties)
        failed = tuple(report.failed_properties)
        if report.ok:
            summary = (f"proof gate: all "
                       f"{len(report.results)} properties hold")
        else:
            first = report.counterexamples[:1]
            why = (f" — {first[0].describe()}" if first
                   else (f" — {report.error}" if report.error else ""))
            summary = (f"proof gate: {', '.join(failed)} violated{why}")
        return GateDecision(passed=report.ok, failed_properties=failed,
                            summary=summary, report=report)

    def evaluate_policy(self, policy_text: str) -> GateDecision:
        """Verify one policy text (digest-cached)."""
        if not self.enabled:
            return GateDecision(True, (), "proof gate disabled")
        digest = hashlib.sha256(policy_text.encode()).hexdigest()
        decision = self._cache.get(digest)
        if decision is None:
            decision = self._verify(policy_text)
            self._cache[digest] = decision
        self.evaluations += 1
        if not decision.passed:
            self.refusals += 1
        return decision

    def evaluate_bundle(self, bundle) -> GateDecision:
        """Verify the policy an OTA bundle carries."""
        return self.evaluate_policy(bundle.policy_text)

    def stats(self) -> Dict[str, int]:
        return {
            "evaluations": self.evaluations,
            "refusals": self.refusals,
            "distinct_policies": len(self._cache),
        }
