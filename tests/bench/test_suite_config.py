"""The smoke suite's table, its gates' fold and its failure rules.

``SMOKE`` keeps the cell ids and parameters the committed ``suite:smoke``
baselines were measured at, so they are pinned here.
"""

import types

import pytest

from repro.bench.suite import SMOKE, SuiteRun, run_suite

SOAK_IDS = [f"chaos-soak__mode={mode},fault_intensity={intensity},"
            f"seed={seed}"
            for mode in ("independent", "apparmor")
            for intensity in ("0.02", "0.08")
            for seed in (1, 2, 3)]


class TestSmokeTable:
    def test_cell_ids(self):
        assert [cell.id for cell in SMOKE] == [
            "chaos-faults", *SOAK_IDS, "recovery", "telemetry-overhead",
            "verify-proofs"]

    def test_scenarios_and_workloads(self):
        assert [(cell.scenario, cell.workload) for cell in SMOKE] == [
            ("chaos-faults", "chaos"), *[("chaos-soak", "chaos")] * 12,
            ("recovery", "recovery"),
            ("telemetry-overhead", "telemetry"),
            ("verify-proofs", "verify")]

    def test_params(self):
        cells = {cell.id: cell.params for cell in SMOKE}
        assert cells["chaos-faults"] == {
            "ticks": 200, "mode": "independent", "fault_intensity": 0.05,
            "seed": 7, "measure_memory": True}
        assert cells[SOAK_IDS[-1]] == {
            "ticks": 400, "mode": "apparmor", "fault_intensity": 0.08,
            "seed": 3, "measure_memory": True}
        assert cells["recovery"] == {
            "vehicles": 6, "epochs": 10, "crash_epoch": 3,
            "checkpoint_interval": 2, "crash_probability": 0.0,
            "seed": 7, "measure_memory": True}
        assert cells["telemetry-overhead"] == {
            "vehicles": 25, "epochs": 12, "short_window": 3,
            "long_window": 12, "seed": 7, "measure_memory": False}
        assert cells["verify-proofs"] == {
            "revisions": 2, "reps": 3, "seed": 7,
            "measure_memory": False}


class TestRecoveryWorkload:
    def test_recovery_cell_measures_restore_latency(self):
        from repro.bench.suite import _run_recovery_cell
        from repro.fleet.orchestrator import FleetConfig
        metrics, obs = _run_recovery_cell({
            "vehicles": 4, "epochs": 8, "crash_epoch": 2,
            "checkpoint_interval": 2, "crash_probability": 0.0,
            "seed": 7})
        assert metrics["recovery_crashes"] == 1.0
        assert metrics["recovery_restores"] == 1.0
        # Simulated time: one crash waits out the first restart backoff.
        config = FleetConfig()
        assert metrics["recovery_restore_latency_ns"] == \
            config.restart_backoff_epochs * config.epoch_ns
        assert metrics["recovery_violations"] == 0.0
        assert metrics["recovery_determinism_ratio"] == 1.0
        assert obs["resilience"]["crashes"] == 1

    def test_recovery_metrics_fold_into_chaos_set(self):
        run = SuiteRun()
        run.results = [{"workload": "recovery",
                        "metrics": {"recovery_restore_latency_ns": 5.0}}]
        assert run.gate_metrics_by_set() == {
            "chaos": {"recovery_restore_latency_ns": 5.0}}


class TestGateFold:
    def test_violations_fold_to_the_worst_cell(self):
        """A violation in any cell reaches the summary, whichever cell
        ran first, for every workload that counts them."""
        run = SuiteRun()
        run.results = [
            {"workload": "chaos", "metrics": {"chaos_violations": 0.0}},
            {"workload": "chaos", "metrics": {"chaos_violations": 2.0}},
            {"workload": "chaos", "metrics": {"chaos_violations": 1.0}},
            {"workload": "recovery",
             "metrics": {"recovery_violations": 0.0}},
            {"workload": "recovery",
             "metrics": {"recovery_violations": 3.0}},
            {"workload": "verify", "metrics": {"verify_violations": 0.0}},
            {"workload": "verify", "metrics": {"verify_violations": 1.0}},
        ]
        folded = run.gate_metrics_by_set()
        assert folded["chaos"] == {"chaos_violations": 2.0,
                                   "recovery_violations": 3.0}
        assert folded["verify"] == {"verify_violations": 1.0}


class TestViolationsFailTheRun:
    """No gate reads a violation count, so a cell that breaks an
    invariant or a property raises instead of reporting it."""

    def test_chaos_violation_fails_the_run(self, monkeypatch, tmp_path):
        from repro.faults import chaos
        real_run_chaos = chaos.run_chaos

        def broken(*args, **kwargs):
            report = real_run_chaos(*args, **kwargs)
            report.violations.append(chaos.Violation(
                tick=1, invariant="I7", detail="injected"))
            return report

        monkeypatch.setattr(chaos, "run_chaos", broken)
        with pytest.raises(RuntimeError, match="1 violation.*I7"):
            run_suite(str(tmp_path), cells=SMOKE[:1])

    def test_recovery_violation_fails_the_cell(self, monkeypatch):
        from repro.bench.suite import _run_recovery_cell
        from repro.fleet.orchestrator import Fleet
        real_run = Fleet.run

        def broken(self, epochs):
            result = real_run(self, epochs)
            result.report.violations.append("I10: injected")
            return result

        monkeypatch.setattr(Fleet, "run", broken)
        with pytest.raises(RuntimeError, match="recovery cell.*I10"):
            _run_recovery_cell({
                "vehicles": 2, "epochs": 4, "crash_epoch": 1,
                "checkpoint_interval": 2, "crash_probability": 0.0,
                "seed": 7})

    def test_failed_property_fails_the_cell(self, monkeypatch):
        import repro.verify
        from repro.bench.suite import _run_verify_cell
        monkeypatch.setattr(
            repro.verify, "verify_policies",
            lambda chain, ioctl_symbols: types.SimpleNamespace(
                failed_properties=["P2:koffee-unreachable"]))
        with pytest.raises(RuntimeError, match="verify cell.*P2"):
            _run_verify_cell({"revisions": 1, "reps": 1, "seed": 7})
