"""Tests for the static-verifier benchmark workload and its gate
wiring (satellite: the suite gains a verify cell + BENCH_verify set)."""

from repro.bench.suite import (SMOKE, _METRIC_SET_ALIASES,
                               _run_verify_cell)
from repro.bench.trajectory import direction_of


def _params(**overrides):
    """The smoke suite's verify cell, with *overrides*."""
    [cell] = [cell for cell in SMOKE if cell.workload == "verify"]
    return {**cell.params, **overrides}


class TestVerifyCell:
    def test_single_revision_proves_clean(self):
        metrics, obs = _run_verify_cell(_params(revisions=1, reps=1))
        assert metrics["verify_violations"] == 0.0
        assert metrics["verify_properties"] == 5.0
        assert metrics["verify_model_states"] == 4.0
        assert obs["policies"] == ["ivi_default"]
        assert all(row["passed"] for row in obs["properties"])

    def test_proof_effort_is_deterministic(self):
        # Wall-clock varies; oracle-check counts and model size do not.
        a, _ = _run_verify_cell(_params(revisions=2, reps=1))
        b, _ = _run_verify_cell(_params(revisions=2, reps=1))
        for key in ("verify_decision_checks", "verify_model_states",
                    "verify_model_edges", "verify_properties"):
            assert a[key] == b[key]

    def test_chain_grows_the_model(self):
        one, _ = _run_verify_cell(_params(revisions=1, reps=1))
        two, obs = _run_verify_cell(_params(revisions=2, reps=1))
        assert two["verify_model_states"] == \
            2 * one["verify_model_states"]
        assert two["verify_decision_checks"] > \
            one["verify_decision_checks"]
        assert obs["model"]["revisions"] == 2

    def test_timing_metrics_present(self):
        metrics, _ = _run_verify_cell(_params(revisions=1, reps=1))
        assert metrics["verify_wall_ms"] > 0.0
        assert metrics["verify_check_ns"] > 0.0
        assert metrics["verify_states_per_second"] > 0.0


class TestGateWiring:
    def test_check_ns_direction_is_lower(self):
        assert direction_of("verify_check_ns") == "lower"

    def test_verify_has_its_own_metric_set(self):
        assert "verify" not in _METRIC_SET_ALIASES
