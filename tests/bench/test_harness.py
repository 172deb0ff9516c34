"""Tests for the benchmark harness (tiny scales — mechanics, not numbers)."""

import pytest

from repro.bench.harness import (SPEED_POLICY, build_rule_count_world,
                                 build_state_count_world,
                                 make_synthetic_policy, run_event_latency,
                                 run_frequency_sweep, run_hook_census,
                                 run_lmbench, run_rule_sweep,
                                 run_state_sweep,
                                 run_transition_cost_ablation,
                                 run_transport_ablation)
from repro.bench.lmbench import FILE_OP_BENCHES
from repro.sack.policy.checker import check_policy, has_errors
from repro.vehicle.ivi import EnforcementConfig, build_stack

NO_LSM = EnforcementConfig.NO_LSM
APPARMOR = EnforcementConfig.APPARMOR
SACK_APPARMOR = EnforcementConfig.SACK_APPARMOR
SACK_INDEPENDENT = EnforcementConfig.SACK_INDEPENDENT


class TestBuildWorld:
    """The one stack builder, as the harness calls it."""

    def test_no_lsm(self):
        world = build_stack(NO_LSM)
        assert world.sack is None and world.apparmor is None
        assert world.framework is None

    def test_apparmor(self):
        world = build_stack(APPARMOR, with_ubuntu_profiles=True)
        assert world.apparmor is not None
        assert len(world.apparmor.policy) > 8  # ubuntu + ivi profiles

    def test_sack_independent_policy_loaded(self):
        world = build_stack(SACK_INDEPENDENT)
        assert world.sack.current_state == "parking_with_driver"
        assert world.sackfs is not None

    def test_sack_apparmor_bridge_wired(self):
        world = build_stack(SACK_APPARMOR)
        assert world.bridge.current_state == "parking_with_driver"
        assert world.bridge.apparmor is world.apparmor

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            build_stack("bogus")

    def test_deferred_activation(self):
        world = build_stack(SACK_INDEPENDENT, policy_text=None)
        assert world.sackfs is None and world.sack.ssm is None
        world.activate(SPEED_POLICY)
        assert world.sack.current_state == "low_speed"
        assert world.sack.policy.name == "speed_gate"

    def test_harness_worlds_carry_no_car(self):
        """No devices and no app tasks: the harness measures the stack."""
        world = build_rule_count_world(10)
        assert not world.kernel.vfs.exists("/dev/car")
        assert not hasattr(world, "tasks")


class TestSyntheticPolicy:
    def test_requested_rule_count(self):
        policy = make_synthetic_policy(50, n_states=4)
        assert policy.rule_count() == 50
        assert len(policy.states) == 4

    def test_policy_is_clean(self):
        diags = check_policy(make_synthetic_policy(20))
        assert not has_errors(diags)

    def test_zero_states_rejected(self):
        with pytest.raises(ValueError):
            make_synthetic_policy(10, n_states=0)

    def test_rule_count_world(self):
        world = build_rule_count_world(30)
        assert world.bridge.policy.rule_count() == 30

    def test_rule_count_world_activates_through_sackfs(self):
        world = build_rule_count_world(10)
        assert world.sackfs is not None
        assert world.bridge.current_state == "s0"

    def test_rule_count_zero_is_plain_apparmor(self):
        world = build_rule_count_world(0)
        assert world.bridge is None and world.apparmor is not None

    def test_state_count_world(self):
        world = build_state_count_world(7)
        assert len(world.sack.ape.compiled.rulesets) == 7


class TestSweepMechanics:
    def test_run_lmbench_shape(self):
        results = run_lmbench(configs=[APPARMOR, SACK_INDEPENDENT],
                              benches=["syscall", "stat"],
                              scale=0.01, repetitions=2)
        assert set(results) == {"apparmor", "sack-independent"}
        assert set(results["apparmor"]) == {"syscall", "stat"}

    def test_rule_sweep_shape(self):
        sweep = run_rule_sweep(rule_counts=(0, 10), benches=["stat"],
                               repetitions=1, scale=0.01)
        assert set(sweep) == {0, 10}

    def test_state_sweep_includes_baseline(self):
        sweep = run_state_sweep(state_counts=(2,), scale=0.01,
                                repetitions=1)
        assert "baseline" in sweep and 2 in sweep
        assert set(sweep[2]) == set(FILE_OP_BENCHES)

    def test_frequency_sweep_transitions_happen(self):
        results = run_frequency_sweep(periods_ms=(1,), accesses=500)
        assert results[1]["transitions"] > 0
        assert results["baseline"]["transitions"] == 0

    def test_event_latency_full_accuracy(self):
        out = run_event_latency(samples_per_event=5)
        assert len(out) == 4
        for metrics in out.values():
            assert metrics["accuracy_pct"] == 100.0
            assert metrics["mean_us"] > 0

    def test_transport_ablation_keys(self):
        out = run_transport_ablation(samples=20)
        assert set(out) == {"sackfs_us", "af_unix_relay_us", "tcp_relay_us"}
        assert all(v > 0 for v in out.values())

    def test_transition_cost_ablation(self):
        out = run_transition_cost_ablation(rule_counts=(10,), transitions=10)
        assert out[10]["independent_us"] > 0
        assert out[10]["bridge_us"] > 0
        assert out[10]["bridge_first_us"] > 0

    def test_hook_census_counts(self):
        census = run_hook_census(configs=[APPARMOR, SACK_INDEPENDENT],
                                 benches=["stat"], scale=0.01)
        assert census["sack-independent"]["sack_hook_calls"] > 0
        assert census["apparmor"]["sack_hook_calls"] == 0
        assert census["apparmor"]["syscalls"] > 0

    def test_hook_census_is_pinned(self):
        """Exact rows at scale 0.02: they move only if a builder boots a
        different stack or the LMBench suite issues different calls."""
        rows = {config: {key: row[key] for key in
                         ("syscalls", "hook_calls", "sack_hook_calls")}
                for config, row in run_hook_census(scale=0.02).items()}
        assert rows == {
            "apparmor": {"syscalls": 7917, "hook_calls": 4947,
                         "sack_hook_calls": 0},
            "sack-apparmor": {"syscalls": 7920, "hook_calls": 4951,
                              "sack_hook_calls": 0},
            "sack-independent": {"syscalls": 7920, "hook_calls": 800,
                                 "sack_hook_calls": 799},
        }


    # -- the one measurement loop, harness._best_of_sweep ------------------

    @staticmethod
    def _builders(keys, builds):
        """Builders whose every world is a new ``(key, build number)``."""
        def builder(key):
            def build():
                builds.append(key)
                return key, len(builds) - 1
            return build
        return {key: builder(key) for key in keys}

    def test_sweep_interleaves_fresh_worlds_and_keeps_the_best(self):
        """Fresh worlds each repetition, a rotating key order, and
        best-of per measure (min latency)."""
        from repro.bench import harness

        builds, calls = [], []
        values = iter([5.0, 9.0, 7.0, 3.0])

        def stat(world):
            calls.append(world)
            return harness.BenchResult("stat", next(values), "ns/op", 1,
                                       True)

        out = harness._best_of_sweep(self._builders("ab", builds),
                                     {"stat": stat}, repetitions=2)
        assert builds == ["a", "b", "a", "b"]
        assert calls == [("a", 0), ("b", 1), ("b", 3), ("a", 2)]
        assert out["a"]["stat"].value == 3.0
        assert out["b"]["stat"].value == 7.0

    def test_each_measure_runs_on_every_world_before_the_next(self):
        from repro.bench import harness

        calls = []

        def measure(name):
            def run(world):
                calls.append((name, world[0]))
                return 1.0
            return run

        out = harness._best_of_sweep(
            self._builders("abc", []),
            {"x": measure("x"), "y": measure("y")}, repetitions=2)
        assert calls == [("x", "a"), ("x", "b"), ("x", "c"),
                         ("y", "a"), ("y", "b"), ("y", "c"),
                         ("x", "b"), ("x", "c"), ("x", "a"),
                         ("y", "b"), ("y", "c"), ("y", "a")]
        assert out == {key: {"x": 1.0, "y": 1.0} for key in "abc"}

    def test_bandwidth_keeps_the_maximum(self):
        from repro.bench import harness

        values = iter([20.0, 90.0, 10.0])
        out = harness._best_of_sweep(
            self._builders("a", []),
            {"bw": lambda world: harness.BenchResult(
                "bw", next(values), "MB/s", 10, False)}, repetitions=3)
        best = out["a"]["bw"]
        assert best.value == 90.0
        assert best.unit == "MB/s" and best.iterations == 10

    def test_plain_numbers_keep_the_minimum(self):
        from repro.bench import harness

        values = iter([20.0, 10.0, 90.0])
        out = harness._best_of_sweep(self._builders("a", []),
                                     {"ns": lambda world: next(values)},
                                     repetitions=3)
        assert out == {"a": {"ns": 10.0}}

    @pytest.mark.parametrize("keys, repetitions", [("a", 0), ("a", -1),
                                                   ("", 3)])
    def test_no_repetition_or_no_world_is_refused(self, keys, repetitions):
        from repro.bench import harness

        builds = []
        with pytest.raises(ValueError):
            harness._best_of_sweep(self._builders(keys, builds),
                                   {"ns": lambda world: 1.0}, repetitions)
        assert builds == []


class TestEveryBestOfGoesThroughTheLoop:
    """Each host-timed sweep and suite cell reaches the one loop exactly
    once, with one build per (repetition, key): a sweep that grows its
    own repeat-and-keep-the-best loop again fails here."""

    @pytest.fixture
    def loop_calls(self, monkeypatch):
        from repro.bench import harness

        real = harness._best_of_sweep
        calls = []

        def recording(builders, measures, repetitions):
            builds = []

            def counted(key, build):
                def counted_build():
                    builds.append(key)
                    return build()
                return counted_build

            calls.append((list(builders), repetitions, builds))
            return real({key: counted(key, build)
                         for key, build in builders.items()},
                        measures, repetitions)

        monkeypatch.setattr(harness, "_best_of_sweep", recording)
        return calls

    @staticmethod
    def _one_call(calls, repetitions):
        [(keys, reps, builds)] = calls
        assert reps == repetitions
        assert builds == keys * repetitions
        return keys

    def test_frequency_sweep(self, loop_calls):
        out = run_frequency_sweep(periods_ms=(1,), accesses=200,
                                  repetitions=2)
        assert self._one_call(loop_calls, 2) == ["baseline", 1]
        assert out["baseline"] == {
            "ns_per_access": out["baseline"]["ns_per_access"],
            "transitions": 0, "overhead_pct": 0.0}
        assert out[1]["transitions"] == 20

    def test_transport_ablation(self, loop_calls):
        run_transport_ablation(samples=3)
        assert self._one_call(loop_calls, 3) == [
            "sackfs_us", "af_unix_relay_us", "tcp_relay_us"]

    def test_transition_cost_ablation(self, loop_calls):
        run_transition_cost_ablation(rule_counts=(10,), transitions=2)
        assert self._one_call(loop_calls, 5) == [(10, "independent"),
                                                 (10, "bridge")]

    def test_baseline_comparison(self, loop_calls):
        from repro.bench.harness import run_baseline_comparison

        run_baseline_comparison(rule_counts=(10,), accesses=20)
        assert self._one_call(loop_calls, 3) == [(10, "abac_ns"),
                                                 (10, "sack_ns")]

    def test_telemetry_cell(self, loop_calls):
        from repro.bench.suite import HOST_REPS, SMOKE, _run_telemetry_cell

        [cell] = [c for c in SMOKE if c.workload == "telemetry"]
        _run_telemetry_cell({**cell.params, "vehicles": 2, "epochs": 2})
        self._one_call(loop_calls, HOST_REPS)

    def test_verify_cell(self, loop_calls):
        from repro.bench.suite import SMOKE, _run_verify_cell

        [cell] = [c for c in SMOKE if c.workload == "verify"]
        _run_verify_cell({**cell.params, "revisions": 1, "reps": 2})
        self._one_call(loop_calls, 2)

    def test_lmbench_sweep(self, loop_calls):
        run_rule_sweep(rule_counts=(0, 10), benches=["stat"],
                       repetitions=2, scale=0.01)
        assert self._one_call(loop_calls, 2) == [0, 10]
