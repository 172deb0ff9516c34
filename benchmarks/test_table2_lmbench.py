"""E1 — Table II: LMBench under AppArmor, SACK-enhanced AppArmor, and
independent SACK (all with default policies).

Paper's headline: both SACK prototypes add only negligible overhead to
AppArmor (mean below ~3%); SACK-enhanced AppArmor's check path is
identical to vanilla AppArmor.
"""

import pytest

from repro.bench import (TABLE2_STACKS, LmbenchSuite, mean_abs_overhead_pct,
                         render_comparison_table, run_lmbench)
from repro.vehicle.ivi import build_stack
from conftest import REPS, SCALE

BASELINE = TABLE2_STACKS[0].value


def test_table2_full(benchmark, show):
    """Regenerates the full Table II and prints it."""
    holder = {}

    def run():
        holder["results"] = run_lmbench(scale=SCALE, repetitions=REPS)
        return holder["results"]

    benchmark.pedantic(run, rounds=1, iterations=1)
    results = holder["results"]
    show(render_comparison_table(results, BASELINE,
                                 "Table II: LMBench results of SACK"))
    lines = ["", "mean |overhead| vs AppArmor baseline:"]
    for config in TABLE2_STACKS[1:]:
        pct = mean_abs_overhead_pct(results, BASELINE, config.value)
        lines.append(f"  {config.value}: {pct:.2f}%")
    show("\n".join(lines))
    # Shape check: the suite ran every row for every configuration.
    assert all(len(results[c.value]) == 17 for c in TABLE2_STACKS)


@pytest.mark.parametrize("config", TABLE2_STACKS, ids=lambda c: c.value)
def test_open_close_latency(benchmark, config):
    """Per-config open/close fd latency as a pytest-benchmark metric."""
    suite = LmbenchSuite(build_stack(config, with_ubuntu_profiles=True)
                         .kernel, scale=SCALE)
    kernel, task = suite.kernel, suite.task
    kernel.vfs.create_file("/tmp/lmbench/probe")
    from repro.kernel import OpenFlags

    def op():
        fd = kernel.sys_open(task, "/tmp/lmbench/probe",
                             OpenFlags.O_RDONLY)
        kernel.sys_close(task, fd)

    benchmark(op)


@pytest.mark.parametrize("config", TABLE2_STACKS, ids=lambda c: c.value)
def test_null_syscall_latency(benchmark, config):
    suite = LmbenchSuite(build_stack(config, with_ubuntu_profiles=True)
                         .kernel, scale=SCALE)
    kernel, task = suite.kernel, suite.task
    benchmark(lambda: kernel.sys_getpid(task))
