"""End-to-end `sack-bench suite` CLI: run, check, report, envelopes.

Covers the acceptance criteria that a suite run produces a run
directory with a manifest and per-cell metrics, that ``--dry-run``
validates without executing, and that ``suite check`` exits non-zero
when a synthetic regression is injected against the committed
trajectory.
"""

import json
import os

import pytest

from repro.bench.envelope import ENVELOPE_SCHEMA, check_envelope
from repro.bench.trajectory import Trajectory, trajectory_path
from repro.cli.benchcli import main

CONFIG = """\
suite: tiny
scenarios:
  - name: mini
    workload: fleet
    matrix:
      vehicles: [2, 3]
      epochs: 2
      seed: 3
gates:
  fleet_epoch_wall_ms: 10
"""


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """One real suite run shared by the module's tests."""
    root = tmp_path_factory.mktemp("suite")
    config = root / "tiny.yaml"
    config.write_text(CONFIG)
    out = root / "runs"
    assert main(["suite", "run", str(config), "--out", str(out)]) == 0
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    return {"config": config, "out": out, "run_dir": run_dirs[0]}


class TestDryRun:
    def test_lists_matrix_and_writes_nothing(self, tmp_path, capsys):
        config = tmp_path / "tiny.yaml"
        config.write_text(CONFIG)
        out = tmp_path / "runs"
        rc = main(["suite", "run", str(config), "--out", str(out),
                   "--dry-run"])
        assert rc == 0
        assert not out.exists()
        stdout = capsys.readouterr().out
        assert "2 cell(s)" in stdout
        assert "mini__vehicles=2" in stdout
        assert "mini__vehicles=3" in stdout
        assert "epochs=2" in stdout  # resolved params are shown

    def test_invalid_config_raises_config_error(self, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("suite: t\nscenarios:\n"
                          "  - {name: s, workload: warp}\n")
        from repro.bench.suite import ConfigError
        with pytest.raises(ConfigError, match="unknown workload"):
            main(["suite", "run", str(config), "--dry-run"])


class TestRunDirectory:
    def test_layout(self, suite_run):
        run_dir = suite_run["run_dir"]
        for name in ("manifest.json", "config.json", "summary.json"):
            assert (run_dir / name).is_file()
        cells = sorted(p.name for p in (run_dir / "cells").iterdir())
        assert cells == ["mini__vehicles=2.json", "mini__vehicles=3.json"]

    def test_manifest_envelope(self, suite_run):
        doc = json.loads((suite_run["run_dir"] / "manifest.json")
                         .read_text())
        check_envelope(doc)
        assert doc["kind"] == "suite-run"
        data = doc["data"]
        assert data["suite"] == "tiny"
        assert len(data["config_hash"]) == 12
        assert data["wall_time_s"] >= 0
        assert "python" in data["host"]

    def test_cell_metrics_and_obs_capture(self, suite_run):
        cell = json.loads(
            (suite_run["run_dir"] / "cells" / "mini__vehicles=3.json")
            .read_text())
        check_envelope(cell)
        data = cell["data"]
        assert data["params"]["vehicles"] == 3
        assert data["metrics"]["fleet_epoch_wall_ms"] > 0
        assert "counters" in data["observability"]

    def test_summary_carries_gate_metrics(self, suite_run):
        doc = json.loads((suite_run["run_dir"] / "summary.json")
                         .read_text())
        by_set = doc["data"]["by_metric_set"]
        assert "fleet_epoch_wall_ms" in by_set["fleet"]


class TestCheck:
    def test_no_baseline_passes_then_update_seeds_it(self, suite_run,
                                                     tmp_path, capsys):
        trajectory_dir = tmp_path / "trajectory"
        trajectory_dir.mkdir()
        args = ["suite", "check", "--run", str(suite_run["run_dir"]),
                "--trajectory", str(trajectory_dir)]
        assert main(args + ["--update"]) == 0
        stdout = capsys.readouterr().out
        assert "0 gated metric(s)" in stdout  # first run has no baseline
        assert (trajectory_dir / "BENCH_fleet.json").is_file()
        # second check now gates against the record --update appended
        assert main(args) == 0
        assert "1 gated metric(s)" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(self, suite_run,
                                                tmp_path, capsys):
        trajectory_dir = tmp_path / "trajectory"
        trajectory_dir.mkdir()
        baseline = Trajectory("fleet")
        baseline.append({"fleet_epoch_wall_ms": 1e-6}, sha="golden")
        baseline.save(trajectory_path(str(trajectory_dir), "fleet"))
        rc = main(["suite", "check", "--run", str(suite_run["run_dir"]),
                   "--trajectory", str(trajectory_dir)])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert "REGRESSION fleet/fleet_epoch_wall_ms" in stdout

    def test_resolves_newest_run_under_out(self, suite_run, tmp_path,
                                           capsys):
        trajectory_dir = tmp_path / "trajectory"
        trajectory_dir.mkdir()
        rc = main(["suite", "check", "--out", str(suite_run["out"]),
                   "--trajectory", str(trajectory_dir)])
        assert rc == 0
        assert str(suite_run["run_dir"]) in capsys.readouterr().out


class TestReport:
    def test_writes_markdown(self, suite_run, tmp_path):
        trajectory_dir = tmp_path / "trajectory"
        trajectory_dir.mkdir()
        baseline = Trajectory("fleet")
        baseline.append({"fleet_epoch_wall_ms": 100.0}, sha="abc")
        baseline.save(trajectory_path(str(trajectory_dir), "fleet"))
        out = tmp_path / "report.md"
        rc = main(["suite", "report",
                   "--trajectory", str(trajectory_dir),
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# Performance trajectory" in text
        assert "## Trend — `fleet`" in text
        assert "fleet_epoch_wall_ms" in text

    def test_run_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "report", "--trajectory", str(tmp_path),
                  "--run", str(tmp_path)])
        assert "unrecognized arguments: --run" in capsys.readouterr().err


class TestEnvelopeUniformity:
    def test_all_subcommands_share_the_envelope(self, suite_run,
                                                tmp_path, monkeypatch):
        monkeypatch.setenv("SACK_BENCH_GIT_SHA", "deadbeef")
        invocations = {
            "experiment": ["transport", "--scale", "0.01"],
            "dry": ["suite", "run", str(suite_run["config"]),
                    "--dry-run"],
            "check": ["suite", "check", "--run",
                      str(suite_run["run_dir"]),
                      "--trajectory", str(tmp_path)],
        }
        docs = {}
        for label, argv in invocations.items():
            path = tmp_path / f"{label}.json"
            assert main(argv + ["--json", str(path)]) == 0
            docs[label] = json.loads(path.read_text())
        key_sets = {label: tuple(sorted(doc))
                    for label, doc in docs.items()}
        assert len(set(key_sets.values())) == 1
        for doc in docs.values():
            check_envelope(doc)
            assert doc["schema"] == ENVELOPE_SCHEMA
            assert doc["git_sha"] == "deadbeef"
