"""`sack-bench --reps`: offered only where a sweep repeats, and at
least 1 wherever it is offered."""

import pytest

from repro.bench import harness
from repro.cli.benchcli import build_parser, main

REPEATED = ("table2", "table3", "fig3a", "fig3b")
SINGLE_RUN = ("latency", "transport", "transition", "abac", "census",
              "hooks")


def test_fig3b_runs_the_requested_repetitions(monkeypatch, capsys):
    real = harness._best_of_sweep
    seen = []

    def recording(builders, measures, repetitions):
        seen.append(repetitions)
        return real(builders, measures, repetitions)

    monkeypatch.setattr(harness, "_best_of_sweep", recording)
    assert main(["fig3b", "--scale", "0.01", "--reps", "1"]) == 0
    assert seen == [1]
    assert "1000 ms" in capsys.readouterr().out


@pytest.mark.parametrize("name", REPEATED)
def test_repeated_experiments_take_reps(name):
    assert build_parser().parse_args([name, "--reps", "2"]).reps == 2


@pytest.mark.parametrize("name", SINGLE_RUN)
def test_single_run_experiments_refuse_reps(name, capsys):
    with pytest.raises(SystemExit) as exc:
        main([name, "--reps", "2"])
    assert exc.value.code == 2
    assert "--reps" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_reps_below_one_is_a_usage_error(reps, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table2", "--scale", "0.01", "--reps", reps])
    assert exc.value.code == 2
    assert "--reps must be at least 1" in capsys.readouterr().err
