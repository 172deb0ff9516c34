"""Benchmark substrate: LMBench-style suite, harness, stats, reporting.

The declarative scenario runner and the trajectory store (with its
trend-table report) live in :mod:`repro.bench.suite` and
:mod:`repro.bench.trajectory`; they are imported lazily (not
re-exported here) so ``import repro.bench`` stays light.
"""

from .harness import (LATENCY_EVENTS, SPEED_POLICY, TABLE2_STACKS,
                      build_rule_count_world, build_state_count_world,
                      make_synthetic_policy, run_baseline_comparison,
                      run_event_latency, run_frequency_sweep,
                      run_hook_census, run_hook_latency_breakdown,
                      run_lmbench, run_rule_sweep, run_state_sweep,
                      run_transition_cost_ablation, run_transport_ablation)
from .lmbench import (BenchResult, FILE_OP_BENCHES, LmbenchSuite,
                      TABLE2_BENCHES)
from .reporting import (TABLE2_ROWS, format_delta, format_value,
                        mean_abs_overhead_pct, render_comparison_table,
                        render_sweep_table)
from .stats import best_result, mean, median, pct_delta
from .timing import best_of, latency_summary_us, percentile, summarize_ns

__all__ = [
    "LATENCY_EVENTS", "SPEED_POLICY", "TABLE2_STACKS",
    "build_rule_count_world", "build_state_count_world",
    "make_synthetic_policy",
    "run_baseline_comparison", "run_event_latency", "run_frequency_sweep",
    "run_hook_census", "run_hook_latency_breakdown", "run_lmbench",
    "run_rule_sweep", "run_state_sweep",
    "run_transition_cost_ablation", "run_transport_ablation",
    "BenchResult", "FILE_OP_BENCHES",
    "LmbenchSuite", "TABLE2_BENCHES", "TABLE2_ROWS", "format_delta",
    "format_value", "mean_abs_overhead_pct", "render_comparison_table",
    "render_sweep_table", "best_result", "mean", "median", "pct_delta",
    "best_of", "latency_summary_us", "percentile", "summarize_ns",
]
