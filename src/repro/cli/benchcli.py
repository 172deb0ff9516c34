"""``sack-bench`` — run the paper's experiments and the scenario suite.

Experiment subcommands mirror the benchmark files::

    sack-bench table2   [--scale 0.5] [--reps 5]
    sack-bench table3   [--scale 0.25] [--reps 5]
    sack-bench fig3a    [--scale 0.4]
    sack-bench fig3b
    sack-bench latency
    sack-bench transport
    sack-bench transition
    sack-bench abac
    sack-bench census
    sack-bench hooks

The declarative batch runner lives under ``suite``::

    sack-bench suite run config.yaml [--out DIR] [--dry-run]
    sack-bench suite check [--run DIR | --out DIR] [--trajectory DIR]
    sack-bench suite report [--trajectory DIR] [--out FILE]
    sack-bench suite ingest BENCH.json --set obs [--trajectory DIR]

Every subcommand accepts ``--json PATH`` (``-`` for stdout) and emits
the same ``sack-bench/v1`` envelope — schema version, kind, timestamp,
git SHA, seed, payload — so any output file feeds the trajectory store
without per-subcommand special-casing.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from ..bench import (FILE_OP_BENCHES, LATENCY_EVENTS, TABLE2_STACKS,
                     mean_abs_overhead_pct, pct_delta,
                     render_comparison_table, render_sweep_table,
                     run_baseline_comparison, run_event_latency,
                     run_frequency_sweep, run_hook_census,
                     run_hook_latency_breakdown, run_lmbench,
                     run_rule_sweep, run_state_sweep,
                     run_transition_cost_ablation, run_transport_ablation)
from ..bench.envelope import make_envelope

#: Default location of the committed perf trajectory.
DEFAULT_TRAJECTORY_DIR = "benchmarks/trajectory"


def _emit(args, kind: str, data, seed: Optional[int] = None) -> None:
    """Write the uniform JSON envelope when ``--json`` was given."""
    path = getattr(args, "json", None)
    if not path:
        return
    doc = make_envelope(kind, data, seed=seed)
    if path == "-":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    print(f"wrote {path}")


def _results_dict(results) -> Dict[str, Dict[str, object]]:
    """``{config: {bench: {value, unit, ...}}}`` from BenchResult maps."""
    import dataclasses
    return {str(key): {name: dataclasses.asdict(res)
                       for name, res in row.items()}
            for key, row in results.items()}


def cmd_table2(args) -> int:
    results = run_lmbench(scale=args.scale, repetitions=args.reps)
    baseline = TABLE2_STACKS[0].value
    print(render_comparison_table(results, baseline,
                                  "Table II: LMBench results of SACK"))
    overheads = {}
    for config in TABLE2_STACKS[1:]:
        pct = mean_abs_overhead_pct(results, baseline, config.value)
        overheads[config.value] = pct
        print(f"{config.value}: mean |overhead| {pct:.2f}%")
    _emit(args, "table2", {"results": _results_dict(results),
                           "mean_abs_overhead_pct": overheads})
    return 0


def cmd_table3(args) -> int:
    benches = ["syscall", "io", "file_create_0k", "file_delete_0k",
               "file_create_10k", "file_delete_10k", "stat", "open_close"]
    sweep = run_rule_sweep(benches=benches, repetitions=args.reps,
                           scale=args.scale)
    print(render_sweep_table(sweep, 0,
                             "Table III: LMBench vs SACK rule count"))
    _emit(args, "table3", {"results": _results_dict(sweep)})
    return 0


def cmd_fig3a(args) -> int:
    sweep = run_state_sweep(scale=args.scale, repetitions=args.reps)
    base = sweep["baseline"]
    print("Fig. 3(a): file-op overhead vs number of situation states")
    deltas_by_count = {}
    for key, results in sweep.items():
        if key == "baseline":
            continue
        deltas = [pct_delta(base[b].value, results[b].value)
                  for b in FILE_OP_BENCHES]
        deltas_by_count[str(key)] = sum(deltas) / len(deltas)
        print(f"  {key:>4} states: {deltas_by_count[str(key)]:+.2f}%")
    _emit(args, "fig3a", {"results": _results_dict(sweep),
                          "mean_overhead_pct": deltas_by_count})
    return 0


def cmd_fig3b(args) -> int:
    results = run_frequency_sweep(accesses=max(2000, int(20000 * args.scale)))
    print("Fig. 3(b): overhead vs transition period")
    for key, row in results.items():
        label = key if key == "baseline" else f"{key} ms"
        print(f"  {label:>10}: {row['ns_per_access']:.0f} ns/access, "
              f"{row['transitions']} transitions, "
              f"{row['overhead_pct']:+.2f}%")
    _emit(args, "fig3b",
          {"results": {str(k): v for k, v in results.items()}})
    return 0


def cmd_latency(args) -> int:
    out = run_event_latency(samples_per_event=max(20, int(300 * args.scale)))
    print("Situation awareness latency (SACKfs)")
    for name in LATENCY_EVENTS:
        m = out[name]
        print(f"  {name:>20}: mean {m['mean_us']:.2f} us, "
              f"p99 {m['p99_us']:.2f} us, "
              f"accuracy {m['accuracy_pct']:.0f}%")
    _emit(args, "latency", {"events": out})
    return 0


def cmd_transport(args) -> int:
    out = run_transport_ablation(samples=max(50, int(1000 * args.scale)))
    print("Event transport ablation (us/event)")
    for channel, value in out.items():
        print(f"  {channel.removesuffix('_us'):>16}: {value:.2f}")
    _emit(args, "transport", {"channels": out})
    return 0


def cmd_transition(args) -> int:
    out = run_transition_cost_ablation(transitions=max(20, int(200 * args.scale)))
    print("Transition cost (us): independent vs bridge "
          "(first entry into a state, then re-entry)")
    for count, row in out.items():
        print(f"  {count:>5} rules: {row['independent_us']:.1f} vs "
              f"{row['bridge_first_us']:.1f}, {row['bridge_us']:.1f} "
              f"({row['ratio']:.0f}x)")
    _emit(args, "transition",
          {"rule_counts": {str(k): v for k, v in out.items()}})
    return 0


def cmd_abac(args) -> int:
    out = run_baseline_comparison(accesses=max(500, int(10000 * args.scale)))
    print("SACK vs ABAC baseline (ns/governed access)")
    for count, row in out.items():
        print(f"  {count:>5} rules: abac {row['abac_ns']:.0f}, "
              f"sack {row['sack_ns']:.0f} ({row['ratio']:.1f}x)")
    _emit(args, "abac",
          {"rule_counts": {str(k): v for k, v in out.items()}})
    return 0


def cmd_census(args) -> int:
    census = run_hook_census(scale=args.scale)
    print("Hook census (exact counts)")
    for config, row in census.items():
        print(f"  {config:>18}: {row['syscalls']} syscalls, "
              f"{row['hook_calls']} hook calls, "
              f"{row['sack_hook_calls']} from SACK")
    _emit(args, "census", {"configs": census})
    return 0


def cmd_hooks(args) -> int:
    breakdown = run_hook_latency_breakdown(scale=args.scale)
    print("Per-hook latency under the LMBench workload "
          "(merged across modules)")
    for config, hooks in breakdown.items():
        print(f"  {config}:")
        rows = sorted(hooks.items(),
                      key=lambda kv: kv[1]["count"], reverse=True)
        for hook, row in rows:
            print(f"    {hook:<22} n={int(row['count']):>8} "
                  f"mean {row['mean_ns']:>8.0f} ns  "
                  f"p50 {row['p50_ns']:>8.0f} ns  "
                  f"p99 {row['p99_ns']:>8.0f} ns")
    _emit(args, "hooks", {"configs": breakdown})
    return 0


# -- suite subcommands ---------------------------------------------------------

def cmd_suite_run(args) -> int:
    from ..bench.suite import load_suite_config, run_suite
    config = load_suite_config(args.config)
    run = run_suite(config, out_root=args.out, dry_run=args.dry_run,
                    show=lambda line: print(line))
    if args.dry_run:
        print(f"suite {config.name}: {len(run.cells)} cell(s) "
              f"(config hash {config.config_hash()}) — dry run, "
              f"nothing executed")
        for cell in run.cells:
            rendered = ", ".join(f"{k}={v}" for k, v in cell.params)
            print(f"  {cell.cell_id}: {cell.workload}({rendered})")
        _emit(args, "suite-dry-run", {
            "suite": config.name,
            "config_hash": config.config_hash(),
            "cells": [{"cell": c.cell_id, "workload": c.workload,
                       "params": c.param_dict} for c in run.cells],
        })
        return 0
    print(f"suite {config.name}: {len(run.results)} cell(s) -> "
          f"{run.run_dir}")
    _emit(args, "suite-run", {
        "suite": config.name,
        "config_hash": config.config_hash(),
        "run_dir": run.run_dir,
        "cells": run.summary_cells(),
    })
    return 0


def _resolve_run_dir(args) -> str:
    from ..bench.suite import latest_run_dir
    if args.run:
        return args.run
    return latest_run_dir(args.out)


def cmd_suite_check(args) -> int:
    from ..bench.suite import append_run_to_trajectory, check_run
    run_dir = _resolve_run_dir(args)
    regressions, checked = check_run(run_dir, args.trajectory)
    print(f"checked {run_dir} against {args.trajectory}: "
          f"{len(checked)} gated metric(s) with committed baselines")
    for name in checked:
        print(f"  gate {name}")
    for regression in regressions:
        print(f"  REGRESSION {regression}")
    _emit(args, "suite-check", {
        "run_dir": run_dir,
        "trajectory_dir": args.trajectory,
        "checked": checked,
        "regressions": [vars(r) for r in regressions],
        "ok": not regressions,
    })
    if regressions:
        print(f"{len(regressions)} regression(s) beyond tolerance")
        return 1
    if args.update:
        for path in append_run_to_trajectory(run_dir, args.trajectory):
            print(f"appended record to {path}")
    print("no regressions beyond tolerance")
    return 0


def cmd_suite_report(args) -> int:
    from ..bench.trajectory import load_all, render_report
    trajectories = load_all(args.trajectory)
    text = render_report(trajectories)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    _emit(args, "suite-report", {
        "trajectory_dir": args.trajectory,
        "metric_sets": [t.metric_set for t in trajectories],
        "report_path": args.out,
    })
    return 0


def cmd_suite_ingest(args) -> int:
    from ..bench.trajectory import ingest_pytest_benchmark
    trajectory = ingest_pytest_benchmark(
        args.trajectory, args.set, args.bench_json, seed=args.seed)
    record = trajectory.records[-1]
    print(f"appended {len(record['metrics'])} metric(s) to "
          f"BENCH_{args.set}.json ({len(trajectory.records)} record(s) "
          f"total)")
    _emit(args, "suite-ingest", {
        "metric_set": args.set,
        "metrics": record["metrics"],
        "records": len(trajectory.records),
    }, seed=args.seed)
    return 0


_EXPERIMENTS = {
    "table2": cmd_table2,
    "table3": cmd_table3,
    "fig3a": cmd_fig3a,
    "fig3b": cmd_fig3b,
    "latency": cmd_latency,
    "transport": cmd_transport,
    "transition": cmd_transition,
    "abac": cmd_abac,
    "census": cmd_census,
    "hooks": cmd_hooks,
}


def _add_json_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="write the sack-bench/v1 envelope to PATH "
                             "('-' for stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sack-bench",
        description="Regenerate the SACK paper's tables and figures, "
                    "and run the declarative benchmark suite")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler in sorted(_EXPERIMENTS.items()):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--scale", type=float, default=0.25,
                       help="iteration multiplier (1.0 = full)")
        p.add_argument("--reps", type=int, default=3,
                       help="repetitions for noise reduction")
        _add_json_arg(p)
        p.set_defaults(handler=handler)

    suite = sub.add_parser("suite",
                           help="declarative scenario suite: "
                                "run / check / report / ingest")
    suite_sub = suite.add_subparsers(dest="suite_command", required=True)

    p = suite_sub.add_parser("run", help="execute a YAML suite config")
    p.add_argument("config", help="suite YAML file")
    p.add_argument("--out", default=None,
                   help="output root (default: the config's 'out')")
    p.add_argument("--dry-run", action="store_true",
                   help="validate and list the sweep matrix, "
                        "execute nothing")
    _add_json_arg(p)
    p.set_defaults(handler=cmd_suite_run)

    p = suite_sub.add_parser(
        "check", help="gate a run against the committed trajectory")
    p.add_argument("--run", default=None,
                   help="run directory (default: newest under --out)")
    p.add_argument("--out", default="bench-runs",
                   help="output root to search for the newest run")
    p.add_argument("--trajectory", default=DEFAULT_TRAJECTORY_DIR,
                   help="trajectory directory with BENCH_*.json files")
    p.add_argument("--update", action="store_true",
                   help="on success, append the run's metrics to the "
                        "trajectory files")
    _add_json_arg(p)
    p.set_defaults(handler=cmd_suite_check)

    p = suite_sub.add_parser(
        "report", help="render the trajectory's trend tables")
    p.add_argument("--trajectory", default=DEFAULT_TRAJECTORY_DIR)
    p.add_argument("--out", default=None,
                   help="markdown output path (default: stdout)")
    _add_json_arg(p)
    p.set_defaults(handler=cmd_suite_report)

    p = suite_sub.add_parser(
        "ingest", help="append a pytest-benchmark JSON to a trajectory")
    p.add_argument("bench_json", help="--benchmark-json output file")
    p.add_argument("--set", required=True,
                   help="metric set name (obs, fleet, chaos, ...)")
    p.add_argument("--trajectory", default=DEFAULT_TRAJECTORY_DIR)
    p.add_argument("--seed", type=int, default=None)
    _add_json_arg(p)
    p.set_defaults(handler=cmd_suite_ingest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
