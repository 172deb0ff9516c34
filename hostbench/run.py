"""Host-timed benchmark of the simulated SACK kernel and fleet.

Usage, from the repository root::

    python3 hostbench/run.py --workload ivi-steady --seed 1 --seconds 30 \\
        --trace 0

Workloads (each one closed-loop client in one process):

``ivi-steady``
    Accesses by the six IVI tasks on a SACK-enhanced-AppArmor world whose
    situation never changes: the syscall, LSM/AVC and AppArmor paths.
``situation-churn``
    Seeded dynamics changes on an independent-SACK world; after each the
    client polls the SDS until the transition lands, probes the access
    the new state flips, then issues a short burst.
``fleet-ota``
    32 AppArmor-bridged vehicles taking two proof-gated OTA bundles.

The seed fixes a workload's *unit*: a sequence of operations made before
timing starts.  A run replays the unit, each time in freshly built worlds,
until ``--seconds`` pass.  Replays issue identical operations on identical
state, so they differ only by host noise: an operation's time is its best
over the replays, and throughput is the best replay's.  A shared host also
has slow phases that outlast a run, so each replay is bracketed by a fixed
reference routine and the result line's times are calibrated to a nominal
host speed (see :mod:`hostbench.calibrate`).

Every run first checks that the workload is deterministic: a fixed
prefix runs twice under a counting tracer and its layer counts (and, for
the fleet, the fleet fingerprint) must match exactly; the replays' program
counters must match too.  Otherwise the run is reported as broken and
exits with status 3 without a result.

With ``--trace 0`` the last line of output is one JSON object carrying
the end-to-end metrics, measured with no tracing installed and calibrated:

``setup_s``
    median time to build the world (or boot a fleet and stage its first
    bundle through the proof gate), over every set-up in the run;
``throughput_per_s``
    accesses per host second (``ivi-steady``, ``situation-churn``) or
    vehicle ticks per host second (``fleet-ota``);
``latency_p50_us`` / ``latency_tail_us``
    median and tail of one access (p99, ``ivi-steady``), of the time from
    the first SDS poll after a change to the probe's verdict (p99,
    ``situation-churn``), or of one ``Fleet.run_epoch`` (p90,
    ``fleet-ota``);
``peak_rss_mb``
    peak resident memory of the run.

The lines before it give the same figures under their per-workload
names, the sample counts, the failed-operation share and the workload's
measured properties.  With ``--trace 1`` half the time replays untraced
and half with spans around every layer's entry points (see
:mod:`hostbench.tracer`); the last line carries the per-layer metrics of
the fastest traced replay, whose spans are written to
``hostbench-out/<workload>.spans.tsv``.

All times come from the host clock; percentiles are exact, from raw
samples.  Exit status: 0 with a result line, 2 when the program source is
missing, 3 when the determinism check fails.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "hostbench-out")

WORKLOADS = ("ivi-steady", "situation-churn", "fleet-ota")

#: End-to-end metric -> unit (the ``--trace 0`` result).
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_us": "us",
    "latency_tail_us": "us",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (the ``--trace 1`` result).
PER_LAYER = {
    "kernel.syscalls": "count", "kernel.self_ms": "ms",
    "lsm.hook_calls": "count", "lsm.self_ms": "ms",
    "lsm.denials": "count", "lsm.epoch_bumps": "count",
    "lsm.avc_hits": "count", "lsm.avc_misses": "count",
    "lsm.avc_hit_ratio": "ratio", "lsm.dtable_hits": "count",
    "lsm.dtable_build_ms": "ms",
    "sack.module.calls": "count", "sack.module.self_ms": "ms",
    "sack.ape.checks": "count", "sack.ape.self_ms": "ms",
    "sack.ssm.events": "count", "sack.ssm.transitions": "count",
    "sack.ssm.self_ms": "ms",
    "sack.sackfs.writes": "count", "sack.sackfs.self_ms": "ms",
    "sack.policy.compiles": "count", "sack.policy.compile_ms": "ms",
    "apparmor.calls": "count", "apparmor.self_ms": "ms",
    "apparmor.profile_loads": "count", "apparmor.profile_load_ms": "ms",
    "sds.polls": "count", "sds.self_ms": "ms",
    "sds.events_sent": "count", "sds.heartbeats_sent": "count",
    "obs.denials": "count", "obs.denial_ms": "ms",
    "fleet.vehicle_ticks": "count", "fleet.tick_ms": "ms",
    "fleet.health_ms": "ms", "fleet.telemetry.frames": "count",
    "fleet.telemetry.collect_ms": "ms", "fleet.supervisor_ms": "ms",
    "fleet.barrier_self_ms": "ms",
    "fleet.bus.publishes": "count", "fleet.bus.copies_delivered": "count",
    "fleet.bus.deliver_ms": "ms", "fleet.bus.publish_ms": "ms",
    "fleet.rollout.step_ms": "ms",
    "fleet.bundle.applies": "count", "fleet.bundle.apply_ms": "ms",
    "fleet.bundle.verify_ms": "ms",
    "verify.gate_checks": "count", "verify.gate_ms": "ms",
    "trace_overhead_pct": "%",
    "bench.unattributed_ms": "ms", "trace.wall_ms": "ms",
    "trace.spans": "count",
    "workload.denial_share": "ratio",
    "workload.pairs_per_avc_slot": "ratio",
    "workload.accesses_per_transition": "ratio",
    "workload.transitions_per_epoch": "ratio",
}

#: Replays per run at least, untraced and traced.
MIN_REPS = 3
MIN_TRACED_REPS = 2
#: Size of the determinism prefix: operations of the single-world
#: workloads (accesses, or situation changes), epochs of the fleet.
PREFIX_OPS = 400
PREFIX_EPOCHS = 12


class Spec:
    """How run.py drives one workload."""

    def __init__(self, name, why, schedule, setup, unit, latency, tail,
                 busy):
        self.name = name
        self.why = why
        self.schedule = schedule
        #: Builds a fresh world for one replay (None: the unit boots its
        #: own fleets and reports their set-up times).
        self.setup = setup
        self.unit = unit
        #: Samples key of the primary latency and its tail percentile.
        self.latency = latency
        self.tail = tail
        #: Samples key whose times add up to the unit's busy time.
        self.busy = busy


def load_specs():
    from hostbench import fleet, ivi
    return {
        "ivi-steady": Spec("ivi-steady", ivi.STEADY_WHY, ivi.steady_schedule,
                           ivi.steady_setup, ivi.steady_unit, "access", 99,
                           "access"),
        "situation-churn": Spec("situation-churn", ivi.CHURN_WHY,
                                ivi.churn_schedule, ivi.churn_setup,
                                ivi.churn_unit, "situation", 99, "cycle"),
        "fleet-ota": Spec("fleet-ota", fleet.FLEET_WHY,
                          fleet.FleetSchedule, None,
                          lambda _env, schedule, ctx: fleet.fleet_unit(
                              schedule, ctx), "epoch", 90, "epoch"),
    }


# -- phases ------------------------------------------------------------------------

def count_probe(spec: Spec, schedule) -> dict:
    """Run a fixed prefix under a counting tracer; return its counts."""
    from array import array
    from hostbench import fleet
    from hostbench.ivi import Failures
    from hostbench.tracer import OpContext, Tracer
    ctx = OpContext()
    tracer = Tracer(ctx, max_stored=0)
    with tracer:
        if spec.setup is None:
            target = fleet.fleet_setup(schedule, 0)
            fleet.run_round(target, schedule, PREFIX_EPOCHS, ctx,
                            array("q"), Failures(), 0)
            counts = dict(fleet.fleet_counters(target))
            counts["fingerprint"] = target.report().fingerprint()
            target.close()
        else:
            env = spec.setup(schedule)
            result = spec.unit(env, schedule, ctx, limit=PREFIX_OPS)
            counts = dict(result.counters)
            counts["failed"] = result.failures.count
    counts.update(tracer.layer_counts())
    return counts


class Replay:
    """One replay of the unit: its result, wall time and tracer, and the
    reference-routine times measured around it."""

    def __init__(self, result, wall_ns: int, tracer=None,
                 reference_ns=()):
        self.result = result
        self.wall_ns = wall_ns
        self.tracer = tracer
        self.reference_ns = list(reference_ns)


def replay(spec: Spec, schedule, seconds: float, min_reps: int,
           traced: bool = False) -> list:
    """Replay the unit in fresh worlds until *seconds* pass."""
    from hostbench.calibrate import reference_runs
    from hostbench.tracer import OpContext, Tracer
    reps = []
    clock = time.perf_counter_ns
    deadline = clock() + int(seconds * 1e9)
    while len(reps) < min_reps or clock() < deadline:
        env = None
        gc.collect()
        reference = reference_runs()
        ctx = OpContext()
        tracer = Tracer(ctx) if traced else None
        if tracer is not None:
            tracer.install()
        try:
            t0 = clock()
            if spec.setup is not None:
                env = spec.setup(schedule)
            setup_ns = clock() - t0
            result = spec.unit(env, schedule, ctx)
            wall_ns = clock() - t0
        finally:
            if tracer is not None:
                tracer.uninstall()
        if spec.setup is not None:
            result.setup_ns.append(setup_ns)
        env = None
        reference += reference_runs()
        reps.append(Replay(result, wall_ns, tracer, reference))
    return reps


class Summary:
    """Replays folded into one set of figures.

    Each operation's time is its best (lowest) over the replays, since
    every replay runs it on identical state, and throughput is the unit's
    work over the sum of those best times; set-up time is the median over
    every set-up.  ``slowdown`` is how much slower than the calibration's
    nominal host the host ran (see :mod:`hostbench.calibrate`).
    """

    def __init__(self, spec: Spec, reps: list):
        from hostbench.calibrate import NOMINAL_NS
        from hostbench.ivi import Failures
        self.spec = spec
        self.reps = reps
        self.reference_best = min(ns for rep in reps
                                  for ns in rep.reference_ns)
        self.slowdown = self.reference_best / NOMINAL_NS
        first = reps[0].result
        self.failures = Failures()
        self.attempted = 0
        for rep in reps:
            self.attempted += rep.result.attempted
            self.failures.count += rep.result.failures.count
            for example in rep.result.failures.examples:
                if len(self.failures.examples) < self.failures.keep:
                    self.failures.examples.append(example)
        #: Program counters (or sample counts) that differ between replays.
        self.diverged = sorted(
            key for key in first.counters
            if any(rep.result.counters.get(key) != first.counters[key]
                   for rep in reps))
        self.setup_ns = [ns for rep in reps for ns in rep.result.setup_ns]
        self.best = {}
        for key in first.samples:
            series = [rep.result.samples[key] for rep in reps]
            if len({len(s) for s in series}) != 1:
                self.diverged.append(f"samples:{key}")
            self.best[key] = list(map(min, zip(*series)))
        self.work = first.work
        self.throughput = self.work / (sum(self.best[spec.busy]) / 1e9)
        self.properties = dict(first.properties)


def end_to_end(summary: Summary) -> dict:
    """The end-to-end metrics, times calibrated to the nominal host."""
    from hostbench.stats import peak_rss_mb, percentile
    spec = summary.spec
    latency = sorted(summary.best[spec.latency])
    slowdown = summary.slowdown
    return {
        "setup_s": percentile(sorted(summary.setup_ns), 50) / 1e9
        / slowdown,
        "throughput_per_s": summary.throughput * slowdown,
        "latency_p50_us": percentile(latency, 50) / 1e3 / slowdown,
        "latency_tail_us": percentile(latency, spec.tail) / 1e3 / slowdown,
        "peak_rss_mb": peak_rss_mb(),
    }


def named_report(summary: Summary) -> list:
    """The workload's figures under their own names, with units."""
    from hostbench.stats import peak_rss_mb, summarize
    spec = summary.spec
    reps = len(summary.reps)
    setup = summarize(summary.setup_ns, 50, 1e9)
    rows = [("setup_s", setup["p50"], "s",
             f"median of {setup['samples']} set-ups")]

    def timing(key, name, tail, scale, unit, noun):
        stats = summarize(summary.best[key], tail, scale)
        note = (f"{stats['samples']} {noun}, each the best of {reps} "
                f"replays; highest supported percentile "
                f"p{stats['max_supported_percentile']}")
        return [(f"{name}_p50_{unit}", stats["p50"], unit, note),
                (f"{name}_p{tail}_{unit}", stats[f"p{tail}"], unit, note)]

    if spec.name == "fleet-ota":
        rows += timing("epoch", "fleet_epoch", 90, 1e6, "ms", "epochs")
        rows.append(("fleet_vehicle_ticks_per_s", summary.throughput, "1/s",
                     f"{summary.work} ticks over the best epoch times"))
    else:
        rows.append(("access_per_s", summary.throughput, "1/s",
                     f"{summary.work} accesses over the best operation "
                     f"times"))
        rows += timing("access", "access", 99, 1e3, "us", "accesses")
        if spec.name == "situation-churn":
            rows += timing("situation", "situation_latency", 99, 1e3, "us",
                           "changes")
    rows += [("ops_failed_frac", summary.failures.count / summary.attempted,
              "ratio", f"{summary.failures.count} of {summary.attempted}"),
             ("peak_rss_mb", peak_rss_mb(), "MB", "")]
    return rows


def per_layer(rep: Replay, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced replay."""
    tracer = rep.tracer
    result = rep.result
    counts = tracer.layer_counts()
    out = {name: counts.get(name, 0) for name in PER_LAYER
           if PER_LAYER[name] == "count"}
    out.update(tracer.self_ms())
    program = result.counters
    out["lsm.epoch_bumps"] = program["epoch_bumps"]
    out["lsm.avc_hits"] = program["avc_hits"]
    out["lsm.avc_misses"] = program["avc_misses"]
    out["lsm.dtable_hits"] = program["dtable_hits"]
    lookups = program["avc_hits"] + program["avc_misses"]
    out["lsm.avc_hit_ratio"] = program["avc_hits"] / lookups if lookups \
        else 0.0
    out["trace_overhead_pct"] = overhead_pct
    out["bench.unattributed_ms"] = (rep.wall_ns - tracer.root_ns) / 1e6
    out["trace.wall_ms"] = rep.wall_ns / 1e6
    out["trace.spans"] = tracer.spans_started
    for name in ("denial_share", "pairs_per_avc_slot",
                 "accesses_per_transition", "transitions_per_epoch"):
        value = result.properties.get(name)
        out[f"workload.{name}"] = 0.0 if value is None else value
    missing = set(PER_LAYER) - set(out)
    if missing:
        raise RuntimeError(f"per-layer metrics not computed: {missing}")
    return {name: out[name] for name in PER_LAYER}


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _broken(message: str) -> int:
    print(f"hostbench: BROKEN: {message}", file=sys.stderr)
    return 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-timed SACK benchmark (see module docstring).")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"hostbench: no program source at {SRC}/repro; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    for path in (SRC, ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)

    from hostbench.calibrate import NOMINAL_NS
    spec = load_specs()[args.workload]
    schedule = spec.schedule(args.seed)

    first = count_probe(spec, schedule)
    second = count_probe(spec, schedule)
    if first != second:
        diff = {key: (first.get(key), second.get(key))
                for key in sorted(set(first) | set(second))
                if first.get(key) != second.get(key)}
        return _broken(f"counts differ between two runs of the same prefix "
                       f"at seed {args.seed}: {diff}")

    untraced_seconds = args.seconds if args.trace == 0 else args.seconds / 2
    summary = Summary(spec, replay(spec, schedule, untraced_seconds,
                                   MIN_REPS))
    if summary.diverged:
        return _broken(f"replays of seed {args.seed} diverged in "
                       f"{summary.diverged}")
    failures = summary.failures.count
    attempted = summary.attempted

    print(f"hostbench {spec.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"why: {spec.why}")
    print(f"determinism: prefix counts repeat exactly ({len(first)} "
          f"counters); {len(summary.reps)} replays agree on every counter")
    print(f"host: reference routine best {summary.reference_best / 1e6:.3f} "
          f"ms (nominal {NOMINAL_NS / 1e6:g} ms); the result line divides "
          f"times by {summary.slowdown:.4f}, the figures below are as "
          f"measured")
    for name, value, unit, note in named_report(summary):
        print(f"metric {name} {_fmt(value)} {unit}"
              + (f"  ({note})" if note else ""))
    print("properties " + json.dumps(
        {k: (None if v is None else round(v, 6))
         for k, v in summary.properties.items()}, sort_keys=True))
    for example in summary.failures.examples:
        print(f"failed: {example}")

    if args.trace == 0:
        values = end_to_end(summary)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        traced = Summary(spec, replay(spec, schedule, args.seconds / 2,
                                      MIN_TRACED_REPS, traced=True))
        failures += traced.failures.count
        attempted += traced.attempted
        for example in traced.failures.examples:
            print(f"failed (traced): {example}")
        best = min(traced.reps, key=lambda rep: rep.wall_ns)
        overhead = (summary.throughput / traced.throughput - 1.0) * 100.0
        values = per_layer(best, overhead)
        self_total = sum(best.tracer.self_ms().values())
        print(f"trace: fastest of {len(traced.reps)} traced replays: self "
              f"times {self_total:.3f} ms + unattributed "
              f"{values['bench.unattributed_ms']:.3f} ms = wall "
              f"{values['trace.wall_ms']:.3f} ms")
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(OUT_DIR, f"{spec.name}.spans.tsv")
        stored = best.tracer.write_spans(spans_path)
        print(f"trace: {stored} of {best.tracer.spans_started} spans "
              f"written to {os.path.relpath(spans_path, ROOT)}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}

    print(json.dumps({"correct": failures == 0, "attempted": attempted,
                      "failed": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
