"""Tests for the adaptive policy enforcer (Algorithm 1)."""

import pytest

from repro.sack.ape import AdaptivePolicyEnforcer
from repro.sack.events import SituationEvent
from repro.sack.policy.compiler import compile_policy
from repro.sack.policy.language import parse_policy
from repro.sack.policy.model import RuleOp

POLICY = """
policy ape_test;
initial normal;
states {
  normal = 0;
  emergency = 1;
}
transitions {
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}
permissions {
  BASE;
  DOORS;
}
state_per {
  normal: BASE;
  emergency: BASE, DOORS;
}
per_rules {
  BASE {
    allow read /dev/car/**;
  }
  DOORS {
    allow write /dev/car/door;
  }
}
guard /dev/car/**;
"""


@pytest.fixture
def ape():
    compiled = compile_policy(parse_policy(POLICY))
    ssm = compiled.policy.build_ssm()
    return AdaptivePolicyEnforcer(compiled, ssm)


def ev(name):
    return SituationEvent(name=name)


class TestApe:
    def test_starts_in_initial_ruleset(self, ape):
        assert ape.current_state == "normal"

    def test_check_against_current_state(self, ape):
        assert ape.check(RuleOp.READ, "/dev/car/door", "app")
        assert not ape.check(RuleOp.WRITE, "/dev/car/door", "app")

    def test_remap_on_transition(self, ape):
        ape.ssm.process_event(ev("crash_detected"), now_ns=10)
        assert ape.current_state == "emergency"
        assert ape.remap_count == 1
        assert ape.check(RuleOp.WRITE, "/dev/car/door", "app")

    def test_remap_back(self, ape):
        ape.ssm.process_event(ev("crash_detected"))
        ape.ssm.process_event(ev("emergency_cleared"))
        assert ape.current_state == "normal"
        assert not ape.check(RuleOp.WRITE, "/dev/car/door", "app")
        assert ape.remap_count == 2

    def test_ignored_event_no_remap(self, ape):
        ape.ssm.process_event(ev("unrelated"))
        assert ape.remap_count == 0

    def test_counters(self, ape):
        ape.check(RuleOp.READ, "/dev/car/door", "app")
        ape.check(RuleOp.WRITE, "/dev/car/door", "app")
        stats = ape.stats()
        assert stats["checks"] == 2
        assert stats["denials"] == 1
        assert stats["state"] == "normal"

    def test_algorithm1_composition(self, ape):
        """MR_current always equals g(f(SS_current))."""
        policy = ape.compiled.policy
        for event in ("crash_detected", "emergency_cleared",
                      "crash_detected"):
            ape.ssm.process_event(ev(event))
            expected_rules = {r.to_text()
                              for r in policy.rules_for_state(
                                  ape.ssm.current_name)}
            actual_rules = set()
            for rules in ape.current_ruleset.allow_by_op.values():
                actual_rules |= {r.source.to_text() for r in rules}
            for rules in ape.current_ruleset.deny_by_op.values():
                actual_rules |= {r.source.to_text() for r in rules}
            assert actual_rules == expected_rules
