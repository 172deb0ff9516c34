"""YAML suite-config validation and sweep expansion (satellite 4).

Covers the acceptance criterion that ``--dry-run`` validates a config
and lists the exact cell matrix without executing anything.
"""

import pytest

from repro.bench.suite import (ConfigError, SuiteConfig, WORKLOAD_AXES,
                               expand_cells, parse_suite_config,
                               run_suite)


def minimal(workload="recovery", matrix=None, **top):
    doc = {
        "suite": "t",
        "scenarios": [{"name": "s", "workload": workload,
                       "matrix": matrix or {}}],
    }
    doc.update(top)
    return doc


class TestTopLevel:
    def test_minimal_config_parses(self):
        config = parse_suite_config(minimal())
        assert config.name == "t"
        assert config.scenarios[0].workload == "recovery"

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError, match="top level"):
            parse_suite_config(["nope"])

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys.*sweeps"):
            parse_suite_config(minimal(sweeps={}))

    def test_missing_suite_name_rejected(self):
        doc = minimal()
        del doc["suite"]
        with pytest.raises(ConfigError, match="suite"):
            parse_suite_config(doc)

    def test_unsafe_suite_name_rejected(self):
        with pytest.raises(ConfigError, match="filesystem-safe"):
            parse_suite_config(minimal(suite="a/b"))

    def test_empty_scenarios_rejected(self):
        with pytest.raises(ConfigError, match="non-empty"):
            parse_suite_config({"suite": "t", "scenarios": []})

    def test_duplicate_scenario_names_rejected(self):
        doc = {"suite": "t", "scenarios": [
            {"name": "s", "workload": "recovery"},
            {"name": "s", "workload": "chaos"},
        ]}
        with pytest.raises(ConfigError, match="duplicate scenario"):
            parse_suite_config(doc)


class TestAxes:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            parse_suite_config(minimal(workload="warp"))

    def test_fleet_workload_refused_with_known_list(self):
        # Fleet speed is hostbench's fleet-ota workload; the suite has
        # no fleet (or hooks) cell.
        assert sorted(WORKLOAD_AXES) == ["chaos", "recovery", "telemetry",
                                         "verify"]
        for workload in ("fleet", "hooks"):
            with pytest.raises(ConfigError) as err:
                parse_suite_config(minimal(workload=workload))
            assert f"unknown workload {workload!r}; choose from " \
                   "['chaos', 'recovery', 'telemetry', 'verify']" \
                in str(err.value)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            parse_suite_config(minimal(matrix={"warp_factor": 9}))

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError, match="mode.*one of"):
            parse_suite_config(minimal(workload="chaos",
                                       matrix={"mode": "gpu"}))

    def test_non_integer_vehicles_rejected(self):
        with pytest.raises(ConfigError, match="vehicles.*integer"):
            parse_suite_config(minimal(matrix={"vehicles": 2.5}))

    def test_below_minimum_rejected(self):
        with pytest.raises(ConfigError, match="vehicles.*>= 1"):
            parse_suite_config(minimal(matrix={"vehicles": 0}))

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_suite_config(minimal(matrix={"seed": -1}))

    def test_bool_axis_rejects_strings(self):
        with pytest.raises(ConfigError, match="measure_memory.*true/false"):
            parse_suite_config(minimal(matrix={"measure_memory": "yes"}))

    def test_fault_intensity_range_enforced(self):
        with pytest.raises(ConfigError, match="fault_intensity"):
            parse_suite_config(minimal(workload="chaos",
                                       matrix={"fault_intensity": 1.5}))

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigError, match="sweep list is empty"):
            parse_suite_config(minimal(matrix={"vehicles": []}))

    def test_repeated_sweep_values_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            parse_suite_config(minimal(matrix={"vehicles": [2, 2]}))

    def test_sweep_element_validated(self):
        with pytest.raises(ConfigError, match=r"vehicles\[1\]"):
            parse_suite_config(minimal(matrix={"vehicles": [1, "x"]}))

    def test_defaults_merge_into_matching_axes_only(self):
        doc = {
            "suite": "t",
            "defaults": {"seed": 9, "ticks": 50},
            "scenarios": [
                {"name": "v", "workload": "verify"},
                {"name": "c", "workload": "chaos"},
            ],
        }
        config = parse_suite_config(doc)
        verify, chaos = config.scenarios
        assert verify.matrix["seed"] == 9
        assert "ticks" not in verify.matrix  # verify has no ticks axis
        assert chaos.matrix == {"seed": 9, "ticks": 50}


class TestGates:
    def test_gate_direction_must_be_inferable(self):
        with pytest.raises(ConfigError, match="direction"):
            parse_suite_config(minimal(gates={"mystery_metric": 10}))

    def test_gate_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_suite_config(
                minimal(gates={"recovery_restore_latency_ns": -5}))

    def test_null_tolerance_means_default(self):
        config = parse_suite_config(
            minimal(gates={"recovery_restore_latency_ns": None}))
        assert config.gates == {"recovery_restore_latency_ns": None}


class TestExpansion:
    def test_cross_product_order_and_ids(self):
        config = parse_suite_config(minimal(
            workload="chaos",
            matrix={"ticks": [1, 2],
                    "mode": ["independent", "apparmor"]}))
        cells = expand_cells(config)
        assert [c.cell_id for c in cells] == [
            "s__ticks=1,mode=independent",
            "s__ticks=1,mode=apparmor",
            "s__ticks=2,mode=independent",
            "s__ticks=2,mode=apparmor",
        ]

    def test_unswept_scenario_uses_bare_name(self):
        cells = expand_cells(parse_suite_config(minimal()))
        assert len(cells) == 1
        assert cells[0].cell_id == "s"

    def test_defaults_fill_unspecified_axes(self):
        cells = expand_cells(parse_suite_config(minimal()))
        params = cells[0].param_dict
        for axis_name, axis in WORKLOAD_AXES["recovery"].items():
            assert params[axis_name] == axis.default

    def test_bool_sweep_renders_on_off(self):
        cells = expand_cells(parse_suite_config(
            minimal(matrix={"measure_memory": [True, False]})))
        assert {c.cell_id for c in cells} == \
            {"s__measure_memory=on", "s__measure_memory=off"}

    def test_seed_is_sweepable(self):
        cells = expand_cells(parse_suite_config(
            minimal(workload="chaos", matrix={"seed": [1, 2, 3]})))
        assert [c.param_dict["seed"] for c in cells] == [1, 2, 3]


class TestDryRun:
    def test_dry_run_expands_without_executing(self, monkeypatch):
        import repro.bench.suite as suite_mod

        def boom(cell):
            raise AssertionError("dry run must not execute cells")

        monkeypatch.setattr(suite_mod, "run_cell", boom)
        config = parse_suite_config(minimal(
            matrix={"vehicles": [1, 2, 4]}))
        run = run_suite(config, dry_run=True)
        assert run.run_dir is None
        assert run.results == []
        assert [c.cell_id for c in run.cells] == [
            "s__vehicles=1", "s__vehicles=2", "s__vehicles=4"]

    def test_dry_run_writes_nothing(self, tmp_path):
        config = parse_suite_config(minimal())
        run_suite(config, out_root=str(tmp_path / "runs"), dry_run=True)
        assert not (tmp_path / "runs").exists()


class TestConfigHash:
    def test_hash_stable_and_content_sensitive(self):
        a = parse_suite_config(minimal(matrix={"vehicles": 2}))
        b = parse_suite_config(minimal(matrix={"vehicles": 2}))
        c = parse_suite_config(minimal(matrix={"vehicles": 4}))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_round_trips_through_to_dict(self):
        config = parse_suite_config(minimal(
            matrix={"vehicles": [1, 2]},
            gates={"recovery_restore_latency_ns": 10}))
        again = parse_suite_config(config.to_dict())
        assert isinstance(again, SuiteConfig)
        assert again.config_hash() == config.config_hash()


class TestRecoveryWorkload:
    def test_recovery_axes_validate(self):
        config = parse_suite_config(minimal(
            workload="recovery",
            matrix={"vehicles": 4, "epochs": 8, "crash_epoch": 2,
                    "checkpoint_interval": 2}), "t")
        cells = expand_cells(config)
        assert [c.workload for c in cells] == ["recovery"]

    def test_recovery_cell_measures_restore_latency(self):
        from repro.bench.suite import _run_recovery_cell
        metrics, obs = _run_recovery_cell({
            "vehicles": 4, "epochs": 8, "crash_epoch": 2,
            "checkpoint_interval": 2, "crash_probability": 0.0,
            "seed": 7})
        assert metrics["recovery_crashes"] == 1.0
        assert metrics["recovery_restores"] == 1.0
        assert metrics["recovery_restore_latency_ns"] > 0
        assert metrics["recovery_violations"] == 0.0
        assert metrics["recovery_determinism_ratio"] == 1.0
        assert obs["resilience"]["crashes"] == 1

    def test_recovery_metrics_fold_into_chaos_set(self):
        from repro.bench.suite import SuiteRun
        run = SuiteRun(config=parse_suite_config(
            minimal(workload="recovery"), "t"), cells=[])
        run.results = [{"workload": "recovery",
                        "metrics": {"recovery_restore_latency_ns": 5.0}}]
        assert run.gate_metrics_by_set() == {
            "chaos": {"recovery_restore_latency_ns": 5.0}}


class TestGateFold:
    def test_violations_fold_to_the_worst_cell(self):
        """A violation in any cell reaches the summary, whichever cell
        ran first, for every workload that counts them."""
        from repro.bench.suite import SuiteRun
        run = SuiteRun(config=parse_suite_config(minimal(), "t"), cells=[])
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
