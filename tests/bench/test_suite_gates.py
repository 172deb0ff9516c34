"""Every gate in the shipped suite configs can fire: it has a known
better-direction and a committed baseline under its own suite's
``suite:<name>`` source, in a metric set one of the suite's workloads
writes.  A gate without a baseline is skipped by ``suite check``, so it
would pass forever."""

import pathlib

import pytest

from repro.bench.suite import _METRIC_SET_ALIASES, load_suite_config
from repro.bench.trajectory import direction_of, load_or_new

ROOT = pathlib.Path(__file__).resolve().parents[2]
CONFIGS = sorted((ROOT / "benchmarks" / "configs").glob("*.yaml"))
TRAJECTORY_DIR = str(ROOT / "benchmarks" / "trajectory")


def test_configs_are_shipped():
    assert {path.stem for path in CONFIGS} >= {"smoke", "mp", "nightly"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.stem)
def test_every_gate_has_direction_and_suite_baseline(path):
    config = load_suite_config(str(path))
    source = f"suite:{config.name}"
    metric_sets = {_METRIC_SET_ALIASES.get(s.workload, s.workload)
                   for s in config.scenarios}
    baselines = {}
    for metric_set in sorted(metric_sets):
        for record in load_or_new(TRAJECTORY_DIR, metric_set).records:
            if record.get("source") == source:
                baselines.update(record.get("metrics") or {})
    assert config.gates, f"{path.name} gates nothing"
    for metric in config.gates:
        assert direction_of(metric) is not None, metric
        assert metric in baselines, \
            f"{path.name}: gate {metric} has no {source} baseline"
