"""Every gate of the smoke suite can fire: it has a known
better-direction and a committed baseline under the suite's
``suite:smoke`` source, in a metric set one of the suite's workloads
writes.  A gate without a baseline is skipped by ``suite check``, so it
would pass forever."""

import pathlib

from repro.bench.suite import _METRIC_SET_ALIASES, GATES, SMOKE, SOURCE
from repro.bench.trajectory import direction_of, load_or_new

ROOT = pathlib.Path(__file__).resolve().parents[2]
TRAJECTORY_DIR = str(ROOT / "benchmarks" / "trajectory")


def test_every_gate_has_direction_and_suite_baseline():
    metric_sets = {_METRIC_SET_ALIASES.get(cell.workload, cell.workload)
                   for cell in SMOKE}
    baselines = {}
    for metric_set in sorted(metric_sets):
        for record in load_or_new(TRAJECTORY_DIR, metric_set).records:
            if record.get("source") == SOURCE:
                baselines.update(record.get("metrics") or {})
    assert GATES, "the suite gates nothing"
    for metric in GATES:
        assert direction_of(metric) is not None, metric
        assert metric in baselines, \
            f"gate {metric} has no {SOURCE} baseline"
