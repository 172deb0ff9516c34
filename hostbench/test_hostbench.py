"""Self-tests of the host benchmark: oracle, checks, tracer and contract.

Run with ``python3 -m pytest hostbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from array import array

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(ROOT, "src") not in sys.path:
    sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

from hostbench import fleet, ivi, run, stats  # noqa: E402
from hostbench.tracer import SPAN_LAYERS, OpContext, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def steady():
    return ivi.steady_schedule(7, length=600)


@pytest.fixture(scope="module")
def churn():
    return ivi.churn_schedule(7, cycles=40)


def _flip(access):
    return access[:6] + (not access[6],)


# -- statistics ----------------------------------------------------------------------

def test_percentiles_are_exact_order_statistics():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50.5
    assert stats.percentile(values, 99) == pytest.approx(99.01)
    assert stats.percentile([7], 99) == 7
    # No bucketing: a value just past a power of two stays where it is.
    assert stats.percentile([65537, 65537, 65537], 99) == 65537


def test_highest_supported_percentile_leaves_ten_samples_beyond():
    assert stats.highest_supported_percentile(1000) == 99.0
    assert stats.highest_supported_percentile(110) == pytest.approx(
        100 * (1 - 10 / 110))
    assert stats.highest_supported_percentile(10) == 0.0


def test_calibration_divides_times_by_the_host_slowdown(steady):
    from hostbench.calibrate import NOMINAL_NS
    result = ivi.steady_unit(ivi.steady_setup(steady), steady, OpContext())
    result.setup_ns.append(10**9)
    spec = run.load_specs()["ivi-steady"]

    def metrics(reference_ns):
        replay = run.Replay(result, 1, reference_ns=[reference_ns])
        return run.end_to_end(run.Summary(spec, [replay]))

    nominal, slow = metrics(NOMINAL_NS), metrics(2 * NOMINAL_NS)
    assert nominal["setup_s"] == pytest.approx(1.0)
    assert slow["setup_s"] == pytest.approx(0.5)
    assert slow["latency_p50_us"] == pytest.approx(
        nominal["latency_p50_us"] / 2)
    assert slow["throughput_per_s"] == pytest.approx(
        nominal["throughput_per_s"] * 2)


# -- oracle and failed operations ---------------------------------------------------

def test_steady_verdicts_match_the_world(steady):
    result = ivi.steady_unit(ivi.steady_setup(steady), steady, OpContext())
    assert result.failures.count == 0
    assert 0.0 < result.properties["denial_share"] < 1.0
    assert result.counters["transitions"] == 0


def test_a_wrong_expectation_is_a_failed_operation(steady):
    entries = [_flip(e) if i % 50 == 0 else e
               for i, e in enumerate(steady.entries)]
    wrong = ivi.SteadySchedule(steady.seed, entries, steady.media)
    result = ivi.steady_unit(ivi.steady_setup(wrong), wrong, OpContext())
    assert result.failures.count == len(range(0, len(entries), 50))
    result.setup_ns.append(1)
    summary = run.Summary(run.load_specs()["ivi-steady"],
                          [run.Replay(result, 1, reference_ns=[1])])
    failed = dict((name, value) for name, value, _unit, _note
                  in run.named_report(summary))["ops_failed_frac"]
    assert failed > 0


def test_churn_visits_every_state_with_one_transition_per_cycle(churn):
    assert {state for _c, state, _p, _b in churn.cycles} == {
        "driving", "parking_with_driver", "parking_without_driver",
        "emergency"}
    assert churn.cycles[-1][1] == ivi.INITIAL_STATE
    result = ivi.churn_unit(ivi.churn_setup(churn), churn, OpContext())
    assert result.failures.count == 0
    assert result.counters["transitions"] == len(churn.cycles)


def test_a_probe_that_does_not_flip_is_a_failed_operation(churn):
    cycles = list(churn.cycles)
    change, state, probe, burst = cycles[3]
    cycles[3] = (change, state, _flip(probe), burst)
    wrong = ivi.ChurnSchedule(churn.seed, cycles, churn.media)
    result = ivi.churn_unit(ivi.churn_setup(wrong), wrong, OpContext())
    assert result.failures.count == 1


def test_an_incomplete_rollout_is_a_failed_operation():
    schedule = fleet.FleetSchedule(3)
    target = fleet.fleet_setup(schedule, 0)
    failures = ivi.Failures()
    fleet.run_round(target, schedule, 4, OpContext(), array("q"), failures,
                    0)
    fleet.check_round(target, schedule, failures, "four epochs")
    # Neither bundle can reach every vehicle in four epochs.
    assert failures.count == 2


# -- tracer ---------------------------------------------------------------------------

def test_self_times_partition_the_traced_time(steady):
    ctx = OpContext()
    tracer = Tracer(ctx)
    with tracer:
        t0 = time.perf_counter_ns()
        ivi.steady_unit(ivi.steady_setup(steady), steady, ctx)
        wall = time.perf_counter_ns() - t0
    assert sum(tracer.self_ns) == tracer.root_ns
    assert 0 < tracer.root_ns <= wall
    counts = tracer.layer_counts()
    assert counts["kernel.syscalls"] > len(steady.entries)
    assert counts["apparmor.calls"] > 0
    assert counts["sack.ssm.transitions"] == 0
    assert counts["sds.polls"] == 0


def test_stored_spans_nest_inside_their_parents(churn, tmp_path):
    ctx = OpContext()
    tracer = Tracer(ctx, max_stored=5000)
    with tracer:
        ivi.churn_unit(ivi.churn_setup(churn), churn, ctx, limit=5)
    path = tmp_path / "spans.tsv"
    assert tracer.write_spans(str(path)) == min(5000, tracer.spans_started)
    rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
    spans = {int(r[0]): (r[1], int(r[2]), int(r[3]), int(r[4]), int(r[5]))
             for r in rows}
    assert {name for name, *_rest in spans.values()} >= {
        "kernel", "lsm", "sack.module", "sack.ape", "sack.ssm",
        "sack.sackfs", "sds"}
    for name, start, end, parent, _op in spans.values():
        assert name in SPAN_LAYERS and start <= end
        if parent in spans:
            assert spans[parent][1] <= start and end <= spans[parent][2]


def test_churn_traced_counts_show_the_write_side(churn):
    ctx = OpContext()
    tracer = Tracer(ctx, max_stored=0)
    with tracer:
        ivi.churn_unit(ivi.churn_setup(churn), churn, ctx)
    counts = tracer.layer_counts()
    assert counts["sack.ssm.transitions"] == len(churn.cycles)
    assert counts["sack.sackfs.writes"] >= len(churn.cycles)
    assert counts["sds.events_sent"] >= len(churn.cycles)
    assert counts["apparmor.calls"] == 0


def test_uninstall_restores_every_entry_point():
    from repro.kernel.syscalls import Kernel
    from repro.sack import module as sack_module
    before = (Kernel.sys_open, sack_module.compile_policy)
    tracer = Tracer(OpContext())
    tracer.install()
    assert Kernel.sys_open is not before[0]
    assert sack_module.compile_policy is not before[1]
    tracer.uninstall()
    assert (Kernel.sys_open, sack_module.compile_policy) == before


def test_count_probe_repeats_exactly(churn):
    spec = run.load_specs()["situation-churn"]
    assert run.count_probe(spec, churn) == run.count_probe(spec, churn)


# -- contract -----------------------------------------------------------------------

def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        doc = json.load(f)
    assert doc["command"] == ["python3", "hostbench/run.py"]
    assert doc["paths"] == ["hostbench"]
    assert [w["name"] for w in doc["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_span_layer_has_its_per_layer_metrics():
    for count_metric, self_metric in SPAN_LAYERS.values():
        assert self_metric in run.PER_LAYER
        assert count_metric is None or count_metric in run.PER_LAYER


def test_run_without_the_program_source_exits_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "hostbench"), tmp_path / "hostbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", "ivi-steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
