"""Proof-effort accounting of the checker's exhaustive loop."""

from repro.verify import verify_policy


class TestExhaustiveAccounting:
    def test_checks_and_elapsed_recorded(self, default_policy_text):
        report = verify_policy(default_policy_text)
        # Every property that interrogates the decision oracle charges
        # its checks to its own row; structural ones may be zero.
        assert sum(r.checks for r in report.results) == \
            report.model_stats["checks"]
        assert all(r.elapsed_ns > 0 for r in report.results)
