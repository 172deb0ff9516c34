"""YAML suite-config validation and sweep expansion (satellite 4).

Covers the acceptance criterion that ``--dry-run`` validates a config
and lists the exact cell matrix without executing anything.
"""

import pytest

from repro.bench.suite import (ConfigError, SuiteConfig, WORKLOAD_AXES,
                               expand_cells, parse_suite_config,
                               run_suite)


def minimal(workload="fleet", matrix=None, **top):
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
        assert config.scenarios[0].workload == "fleet"

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
            {"name": "s", "workload": "fleet"},
            {"name": "s", "workload": "chaos"},
        ]}
        with pytest.raises(ConfigError, match="duplicate scenario"):
            parse_suite_config(doc)


class TestAxes:
    def test_unknown_workload_rejected(self):
        with pytest.raises(ConfigError, match="unknown workload"):
            parse_suite_config(minimal(workload="warp"))

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigError, match="unknown axis"):
            parse_suite_config(minimal(matrix={"warp_factor": 9}))

    def test_bad_choice_rejected(self):
        with pytest.raises(ConfigError, match="backend.*one of"):
            parse_suite_config(minimal(matrix={"backend": "gpu"}))

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
        with pytest.raises(ConfigError, match="rollout.*true/false"):
            parse_suite_config(minimal(matrix={"rollout": "yes"}))

    def test_fault_intensity_range_enforced(self):
        with pytest.raises(ConfigError, match="fault_intensity"):
            parse_suite_config(minimal(matrix={"fault_intensity": 1.5}))

    def test_empty_sweep_list_rejected(self):
        with pytest.raises(ConfigError, match="sweep list is empty"):
            parse_suite_config(minimal(matrix={"workers": []}))

    def test_repeated_sweep_values_rejected(self):
        with pytest.raises(ConfigError, match="repeat"):
            parse_suite_config(minimal(matrix={"workers": [2, 2]}))

    def test_sweep_element_validated(self):
        with pytest.raises(ConfigError, match=r"workers\[1\]"):
            parse_suite_config(minimal(matrix={"workers": [1, "x"]}))

    def test_defaults_merge_into_matching_axes_only(self):
        doc = {
            "suite": "t",
            "defaults": {"seed": 9, "ticks": 50},
            "scenarios": [
                {"name": "f", "workload": "fleet"},
                {"name": "c", "workload": "chaos"},
            ],
        }
        config = parse_suite_config(doc)
        fleet, chaos = config.scenarios
        assert fleet.matrix["seed"] == 9
        assert "ticks" not in fleet.matrix  # fleet has no ticks axis
        assert chaos.matrix == {"seed": 9, "ticks": 50}


class TestGates:
    def test_gate_direction_must_be_inferable(self):
        with pytest.raises(ConfigError, match="direction"):
            parse_suite_config(minimal(gates={"mystery_metric": 10}))

    def test_gate_tolerance_must_be_positive(self):
        with pytest.raises(ConfigError, match="positive"):
            parse_suite_config(
                minimal(gates={"fleet_epoch_wall_ms": -5}))

    def test_null_tolerance_means_default(self):
        config = parse_suite_config(
            minimal(gates={"fleet_epoch_wall_ms": None}))
        assert config.gates == {"fleet_epoch_wall_ms": None}


class TestExpansion:
    def test_cross_product_order_and_ids(self):
        config = parse_suite_config(minimal(
            matrix={"workers": [1, 2], "backend": ["serial", "process"]}))
        cells = expand_cells(config)
        assert [c.cell_id for c in cells] == [
            "s__workers=1,backend=serial",
            "s__workers=1,backend=process",
            "s__workers=2,backend=serial",
            "s__workers=2,backend=process",
        ]

    def test_unswept_scenario_uses_bare_name(self):
        cells = expand_cells(parse_suite_config(minimal()))
        assert len(cells) == 1
        assert cells[0].cell_id == "s"

    def test_defaults_fill_unspecified_axes(self):
        cells = expand_cells(parse_suite_config(minimal()))
        params = cells[0].param_dict
        for axis_name, axis in WORKLOAD_AXES["fleet"].items():
            assert params[axis_name] == axis.default

    def test_bool_sweep_renders_on_off(self):
        cells = expand_cells(parse_suite_config(
            minimal(matrix={"rollout": [True, False]})))
        assert {c.cell_id for c in cells} == \
            {"s__rollout=on", "s__rollout=off"}

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
            matrix={"workers": [1, 2, 4]}))
        run = run_suite(config, dry_run=True)
        assert run.run_dir is None
        assert run.results == []
        assert [c.cell_id for c in run.cells] == [
            "s__workers=1", "s__workers=2", "s__workers=4"]

    def test_dry_run_writes_nothing(self, tmp_path):
        config = parse_suite_config(minimal())
        run_suite(config, out_root=str(tmp_path / "runs"), dry_run=True)
        assert not (tmp_path / "runs").exists()


class TestConfigHash:
    def test_hash_stable_and_content_sensitive(self):
        a = parse_suite_config(minimal(matrix={"workers": 2}))
        b = parse_suite_config(minimal(matrix={"workers": 2}))
        c = parse_suite_config(minimal(matrix={"workers": 4}))
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_round_trips_through_to_dict(self):
        config = parse_suite_config(minimal(
            matrix={"workers": [1, 2]},
            gates={"fleet_epoch_wall_ms": 10}))
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
