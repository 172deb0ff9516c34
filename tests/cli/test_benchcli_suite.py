"""End-to-end `sack-bench suite` CLI: run, check, report, envelopes.

Covers the acceptance criteria that a suite run writes a run directory
with a summary and per-cell metrics, and that ``suite check`` exits
non-zero when a synthetic regression is injected against the
committed trajectory.  The module runs the real smoke suite once.
"""

import json

import pytest

from repro.bench.envelope import ENVELOPE_SCHEMA, check_envelope
from repro.bench.suite import GATES, SMOKE
from repro.bench.trajectory import Trajectory, trajectory_path
from repro.cli.benchcli import main


@pytest.fixture(scope="module")
def suite_run(tmp_path_factory):
    """One real smoke-suite run shared by the module's tests."""
    out = tmp_path_factory.mktemp("suite") / "runs"
    assert main(["suite", "run", "--out", str(out)]) == 0
    run_dirs = [p for p in out.iterdir() if p.is_dir()]
    assert len(run_dirs) == 1
    return {"out": out, "run_dir": run_dirs[0]}


def _summary(suite_run):
    return json.loads((suite_run["run_dir"] / "summary.json").read_text())


class TestRunDirectory:
    def test_layout(self, suite_run):
        run_dir = suite_run["run_dir"]
        assert run_dir.name.startswith("smoke-")
        assert sorted(p.name for p in run_dir.iterdir()) == \
            ["cells", "summary.json"]
        cells = sorted(p.name for p in (run_dir / "cells").iterdir())
        assert cells == sorted(f"{cell.id}.json" for cell in SMOKE)

    def test_summary_envelope(self, suite_run):
        doc = _summary(suite_run)
        check_envelope(doc)
        assert doc["kind"] == "suite-summary"
        data = doc["data"]
        assert data["suite"] == "smoke"
        assert data["gates"] == GATES
        assert data["wall_time_s"] >= 0
        assert "python" in data["host"]

    def test_cell_metrics_and_obs_capture(self, suite_run):
        cell = json.loads(
            (suite_run["run_dir"] / "cells" / "verify-proofs.json")
            .read_text())
        check_envelope(cell)
        data = cell["data"]
        assert data["params"]["revisions"] == 2
        assert data["metrics"]["verify_wall_ms"] > 0
        assert len(data["observability"]["policies"]) == 2

    def test_summary_carries_gate_metrics(self, suite_run):
        by_set = _summary(suite_run)["data"]["by_metric_set"]
        assert "verify_wall_ms" in by_set["verify"]
        assert "telemetry_host_overhead_pct" in by_set["obs"]

    def test_every_chaos_cell_transitions(self, suite_run):
        chaos = [row for row in _summary(suite_run)["data"]["cells"]
                 if row["workload"] == "chaos"]
        assert len(chaos) == 13
        for row in chaos:
            assert row["metrics"]["chaos_transitions"] > 0, row["cell"]
            assert row["metrics"]["chaos_violations"] == 0, row["cell"]


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
        assert (trajectory_dir / "BENCH_verify.json").is_file()
        # second check now gates against the record --update appended
        assert main(args) == 0
        assert f"{len(GATES)} gated metric(s)" in capsys.readouterr().out

    def test_synthetic_regression_exits_nonzero(self, suite_run,
                                                tmp_path, capsys):
        trajectory_dir = tmp_path / "trajectory"
        trajectory_dir.mkdir()
        baseline = Trajectory("verify")
        baseline.append({"verify_wall_ms": 1e-6}, sha="golden")
        baseline.save(trajectory_path(str(trajectory_dir), "verify"))
        rc = main(["suite", "check", "--run", str(suite_run["run_dir"]),
                   "--trajectory", str(trajectory_dir)])
        assert rc == 1
        stdout = capsys.readouterr().out
        assert "REGRESSION verify/verify_wall_ms" in stdout

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
        baseline = Trajectory("verify")
        baseline.append({"verify_wall_ms": 100.0}, sha="abc")
        baseline.save(trajectory_path(str(trajectory_dir), "verify"))
        out = tmp_path / "report.md"
        rc = main(["suite", "report",
                   "--trajectory", str(trajectory_dir),
                   "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# Performance trajectory" in text
        assert "## Trend — `verify`" in text
        assert "verify_wall_ms" in text

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
            "report": ["suite", "report", "--trajectory", str(tmp_path),
                       "--out", str(tmp_path / "report.md")],
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
