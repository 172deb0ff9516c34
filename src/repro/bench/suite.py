"""``sack-bench suite`` — the declarative scenario harness.

A YAML config names a suite, a list of scenarios (each a workload plus
a parameter *matrix* whose list-valued axes sweep a cross-product), and
the regression *gates* the run is judged by::

    suite: smoke
    defaults:
      seed: 7
    scenarios:
      - name: fleet-scale
        workload: fleet
        matrix:
          vehicles: 8
          workers: [1, 4]
          hook_latency: true
      - name: avc-hit-path
        workload: avc
        matrix:
          rules: [50, 200]
    gates:
      fleet_vehicles_per_second: 10   # fail check on >10% drop
      avc_speedup: 50

``expand_cells`` turns that into one :class:`SweepCell` per matrix
combination; ``--dry-run`` prints exactly that matrix and executes
nothing.  ``run_suite`` executes each cell through the *existing*
harnesses — the fleet scheduler, the chaos harness, the AVC
microbenchmark loop, the per-hook latency breakdown — and writes a run
directory::

    <out>/<suite>-<UTC stamp>-<confighash8>/
      manifest.json        # envelope: config hash, git SHA, host, cells
      config.json          # the resolved config the hash covers
      cells/<cell id>.json # envelope: params, metrics, obs capture
      summary.json         # envelope: gate metrics per cell (check input)

Every cell doubles as an observability capture: its JSON folds in the
kernel's :mod:`repro.obs` metrics-hub counters (via the same
``aggregate_counters`` fold the fleet report uses) and, where spans are
cheap to arm, the span tracer's CPU breakdown.  ``suite check``
compares ``summary.json`` against the committed trajectory
(:mod:`repro.bench.trajectory`) and exits non-zero on any gate breach.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import os
import platform
import time
import tracemalloc
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .envelope import make_envelope, utc_now_iso
from .timing import best_of

#: Resolved-config hash length used in run-directory names.
_HASH_LEN = 12


class ConfigError(ValueError):
    """A suite config failed validation; ``path`` locates the offender."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


# -- axis schema ---------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class Axis:
    """One sweepable parameter of a workload's matrix."""

    name: str
    kind: str                  # "int" | "float" | "bool" | "choice"
    default: object
    choices: Tuple[str, ...] = ()
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def parse(self, value, path: str):
        if self.kind == "bool":
            if not isinstance(value, bool):
                raise ConfigError(path, f"expected true/false, "
                                        f"got {value!r}")
            return value
        if self.kind == "choice":
            if not isinstance(value, str) or value not in self.choices:
                raise ConfigError(
                    path, f"expected one of {list(self.choices)}, "
                          f"got {value!r}")
            return value
        if isinstance(value, bool) or \
                not isinstance(value, (int, float)):
            raise ConfigError(path, f"expected a number, got {value!r}")
        if self.kind == "int" and not isinstance(value, int):
            raise ConfigError(path, f"expected an integer, got {value!r}")
        if self.minimum is not None and value < self.minimum:
            raise ConfigError(path, f"must be >= {self.minimum:g}, "
                                    f"got {value!r}")
        if self.maximum is not None and value > self.maximum:
            raise ConfigError(path, f"must be <= {self.maximum:g}, "
                                    f"got {value!r}")
        return int(value) if self.kind == "int" else float(value)


def _axes(*axes: Axis) -> Dict[str, Axis]:
    return {axis.name: axis for axis in axes}


_SEED = Axis("seed", "int", 0, minimum=0)
_MEASURE_MEMORY_ON = Axis("measure_memory", "bool", True)
_MEASURE_MEMORY_OFF = Axis("measure_memory", "bool", False)

#: Per-workload matrix schemas.  Axis order here fixes cell-id layout.
WORKLOAD_AXES: Dict[str, Dict[str, Axis]] = {
    "fleet": _axes(
        Axis("vehicles", "int", 8, minimum=1),
        Axis("workers", "int", 1, minimum=1),
        Axis("backend", "choice", "serial",
             choices=("serial", "process")),
        Axis("epochs", "int", 6, minimum=1),
        Axis("mode", "choice", "independent",
             choices=("independent", "apparmor")),
        Axis("fault_intensity", "float", 0.0, minimum=0.0, maximum=1.0),
        Axis("drive_cycle", "choice", "traffic",
             choices=("traffic", "calm", "crash")),
        Axis("rollout", "bool", False),
        Axis("hook_latency", "bool", False),
        _SEED, _MEASURE_MEMORY_ON,
    ),
    "chaos": _axes(
        Axis("ticks", "int", 200, minimum=1),
        Axis("mode", "choice", "independent",
             choices=("independent", "apparmor")),
        Axis("fault_intensity", "float", 0.05, minimum=0.0, maximum=1.0),
        _SEED, _MEASURE_MEMORY_ON,
    ),
    "recovery": _axes(
        Axis("vehicles", "int", 8, minimum=1),
        Axis("workers", "int", 1, minimum=1),
        Axis("epochs", "int", 12, minimum=2),
        Axis("crash_epoch", "int", 3, minimum=0),
        Axis("checkpoint_interval", "int", 2, minimum=1),
        Axis("crash_probability", "float", 0.0, minimum=0.0,
             maximum=1.0),
        _SEED, _MEASURE_MEMORY_ON,
    ),
    "avc": _axes(
        Axis("rules", "int", 200, minimum=1),
        Axis("iterations", "int", 2000, minimum=1),
        Axis("reps", "int", 3, minimum=1),
        _SEED, _MEASURE_MEMORY_OFF,
    ),
    "hooks": _axes(
        Axis("scale", "float", 0.1, minimum=0.001, maximum=1.0),
        _SEED, _MEASURE_MEMORY_OFF,
    ),
    "telemetry": _axes(
        Axis("vehicles", "int", 25, minimum=1),
        Axis("workers", "int", 1, minimum=1),
        Axis("epochs", "int", 12, minimum=2),
        Axis("short_window", "int", 3, minimum=1),
        Axis("long_window", "int", 12, minimum=1),
        _SEED, _MEASURE_MEMORY_OFF,
    ),
    "verify": _axes(
        # Revisions in the checked OTA chain: 1 verifies the built-in
        # IVI policy alone; higher values alternate it with the
        # emergency-lockdown example so OTA edges appear in the model.
        Axis("revisions", "int", 2, minimum=1, maximum=8),
        Axis("reps", "int", 3, minimum=1),
        _SEED, _MEASURE_MEMORY_OFF,
    ),
}


# -- config model --------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SweepCell:
    """One fully-resolved point of a scenario's sweep."""

    scenario: str
    workload: str
    params: Tuple[Tuple[str, object], ...]
    swept: Tuple[str, ...]          # axes that were list-valued

    @property
    def param_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def cell_id(self) -> str:
        if not self.swept:
            return self.scenario
        parts = []
        values = self.param_dict
        for axis in self.swept:
            value = values[axis]
            if isinstance(value, bool):
                value = "on" if value else "off"
            parts.append(f"{axis}={value}")
        return f"{self.scenario}__" + ",".join(parts)


@dataclasses.dataclass
class ScenarioSpec:
    """One scenario: a workload plus its (possibly swept) matrix."""

    name: str
    workload: str
    matrix: Dict[str, object]       # axis -> scalar or list of scalars


@dataclasses.dataclass
class SuiteConfig:
    """A parsed, validated suite file."""

    name: str
    scenarios: List[ScenarioSpec]
    gates: Dict[str, Optional[float]]
    out: str = "bench-runs"

    def to_dict(self) -> Dict[str, object]:
        return {
            "suite": self.name,
            "out": self.out,
            "scenarios": [{"name": s.name, "workload": s.workload,
                           "matrix": s.matrix}
                          for s in self.scenarios],
            "gates": dict(self.gates),
        }

    def config_hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:_HASH_LEN]


_NAME_SAFE = set("abcdefghijklmnopqrstuvwxyz"
                 "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")


def _check_name(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(path, f"expected a non-empty string, "
                                f"got {value!r}")
    bad = set(value) - _NAME_SAFE
    if bad:
        raise ConfigError(path, f"name {value!r} contains "
                                f"non-filesystem-safe characters "
                                f"{sorted(bad)}")
    return value


def parse_suite_config(doc, source: str = "<config>") -> SuiteConfig:
    """Validate a YAML/JSON document into a :class:`SuiteConfig`."""
    from .trajectory import direction_of
    if not isinstance(doc, dict):
        raise ConfigError(source, "top level must be a mapping")
    allowed = {"suite", "out", "defaults", "scenarios", "gates"}
    unknown = sorted(set(doc) - allowed)
    if unknown:
        raise ConfigError(source, f"unknown keys {unknown}; "
                                  f"allowed: {sorted(allowed)}")
    name = _check_name(doc.get("suite"), f"{source}.suite")
    out = doc.get("out", "bench-runs")
    if not isinstance(out, str) or not out:
        raise ConfigError(f"{source}.out",
                          f"expected a path string, got {out!r}")

    defaults = doc.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigError(f"{source}.defaults", "must be a mapping")

    raw_scenarios = doc.get("scenarios")
    if not isinstance(raw_scenarios, list) or not raw_scenarios:
        raise ConfigError(f"{source}.scenarios",
                          "must be a non-empty list")
    scenarios: List[ScenarioSpec] = []
    seen_names = set()
    for i, raw in enumerate(raw_scenarios):
        path = f"{source}.scenarios[{i}]"
        if not isinstance(raw, dict):
            raise ConfigError(path, "must be a mapping")
        extra = sorted(set(raw) - {"name", "workload", "matrix"})
        if extra:
            raise ConfigError(path, f"unknown keys {extra}")
        sname = _check_name(raw.get("name"), f"{path}.name")
        if sname in seen_names:
            raise ConfigError(f"{path}.name",
                              f"duplicate scenario name {sname!r}")
        seen_names.add(sname)
        workload = raw.get("workload")
        if workload not in WORKLOAD_AXES:
            raise ConfigError(
                f"{path}.workload",
                f"unknown workload {workload!r}; "
                f"choose from {sorted(WORKLOAD_AXES)}")
        axes = WORKLOAD_AXES[workload]
        matrix_in = raw.get("matrix", {})
        if not isinstance(matrix_in, dict):
            raise ConfigError(f"{path}.matrix", "must be a mapping")
        merged = {k: v for k, v in defaults.items() if k in axes}
        merged.update(matrix_in)
        matrix: Dict[str, object] = {}
        for axis_name, value in merged.items():
            apath = f"{path}.matrix.{axis_name}"
            axis = axes.get(axis_name)
            if axis is None:
                raise ConfigError(
                    apath, f"unknown axis for workload {workload!r}; "
                           f"allowed: {sorted(axes)}")
            if isinstance(value, list):
                if not value:
                    raise ConfigError(apath, "sweep list is empty")
                parsed = [axis.parse(v, f"{apath}[{j}]")
                          for j, v in enumerate(value)]
                if len(set(map(repr, parsed))) != len(parsed):
                    raise ConfigError(apath,
                                      f"sweep values repeat: {value!r}")
                matrix[axis_name] = parsed
            else:
                matrix[axis_name] = axis.parse(value, apath)
        scenarios.append(ScenarioSpec(sname, workload, matrix))

    raw_gates = doc.get("gates", {})
    if not isinstance(raw_gates, dict):
        raise ConfigError(f"{source}.gates", "must be a mapping")
    gates: Dict[str, Optional[float]] = {}
    for metric, tolerance in raw_gates.items():
        gpath = f"{source}.gates.{metric}"
        if direction_of(str(metric)) is None:
            raise ConfigError(
                gpath, "cannot infer better-direction from the metric "
                       "name; use a *_ns / *_per_second / *speedup* "
                       "style name")
        if tolerance is not None:
            if isinstance(tolerance, bool) or \
                    not isinstance(tolerance, (int, float)) or \
                    tolerance <= 0:
                raise ConfigError(gpath, f"tolerance must be a positive "
                                         f"percentage, got {tolerance!r}")
            tolerance = float(tolerance)
        gates[str(metric)] = tolerance
    return SuiteConfig(name=name, scenarios=scenarios, gates=gates,
                       out=out)


def load_suite_config(path: str) -> SuiteConfig:
    import yaml
    with open(path, "r", encoding="utf-8") as fh:
        doc = yaml.safe_load(fh)
    return parse_suite_config(doc, source=os.path.basename(path))


def expand_cells(config: SuiteConfig) -> List[SweepCell]:
    """The full sweep cross-product, in declaration order."""
    cells: List[SweepCell] = []
    for scenario in config.scenarios:
        axes = WORKLOAD_AXES[scenario.workload]
        resolved: Dict[str, List[object]] = {}
        swept: List[str] = []
        for axis_name, axis in axes.items():
            value = scenario.matrix.get(axis_name, axis.default)
            if isinstance(value, list):
                resolved[axis_name] = value
                swept.append(axis_name)
            else:
                resolved[axis_name] = [value]
        names = list(resolved)
        for combo in itertools.product(*(resolved[n] for n in names)):
            cells.append(SweepCell(
                scenario=scenario.name, workload=scenario.workload,
                params=tuple(zip(names, combo)), swept=tuple(swept)))
    ids = [c.cell_id for c in cells]
    dupes = sorted({i for i in ids if ids.count(i) > 1})
    if dupes:
        raise ConfigError("scenarios",
                          f"sweep produces duplicate cell ids {dupes}")
    return cells


# -- workload executors --------------------------------------------------------

#: Synthetic policy template shared with ``benchmarks/test_avc.py``:
#: *rule_count* bulk rules with the probe path matching last, so every
#: uncached check pays the full linear walk a large real policy would.
def avc_bench_policy(rule_count: int) -> str:
    rules = "\n".join(f"    allow read /dev/car/sensor{i:03d};"
                      for i in range(rule_count))
    return f"""
policy avc_bench;
initial normal;
states {{
  normal = 0;
  emergency = 1;
}}
transitions {{
  normal -> emergency on crash_detected;
  emergency -> normal on emergency_cleared;
}}
permissions {{
  BULK;
  DOORS;
}}
state_per {{
  normal: BULK;
  emergency: BULK, DOORS;
}}
per_rules {{
  BULK {{
{rules}
    allow read /dev/car/probe;
  }}
  DOORS {{
    allow write /dev/car/door subject=rescue_daemon;
  }}
}}
guard /dev/car/**;
"""


def _fold_counters(kernels) -> Dict[str, int]:
    from ..fleet.report import aggregate_counters
    return aggregate_counters(k.obs.metrics.to_dict() for k in kernels)


def _run_fleet_cell(params: Dict[str, object]
                    ) -> Tuple[Dict[str, float], Dict[str, object]]:
    from ..fleet.bundle import BundleSigner, make_bundle
    from ..fleet.orchestrator import (Fleet, FleetConfig, ScriptedDriver,
                                      TrafficDriver)
    from ..vehicle.ivi import DEFAULT_SACK_POLICY

    cycle = params["drive_cycle"]
    epochs = int(params["epochs"])

    def make_driver():
        # Fresh per fleet: scripted drivers carry per-run schedule state,
        # and the process cell boots a shadow fleet alongside the primary.
        if cycle == "traffic":
            return TrafficDriver(int(params["seed"]))
        if cycle == "calm":
            return ScriptedDriver()
        # crash: first vehicle crashes early and recovers later
        driver = ScriptedDriver().at(1, "veh000", "crash")
        if epochs > 4:
            driver.at(epochs - 2, "veh000", "clear")
        return driver

    def make_config(backend: str, workers: int) -> FleetConfig:
        return FleetConfig(
            n_vehicles=int(params["vehicles"]), seed=int(params["seed"]),
            workers=workers, mode=str(params["mode"]),
            backend=backend,
            vehicle_fault_intensity=float(params["fault_intensity"]))

    backend = str(params["backend"])
    # Under the process backend the vehicles live in worker processes, so
    # the coordinator cannot reach into their kernels for the per-hook
    # latency histograms; the knob is in-process-only.
    hook_latency = bool(params["hook_latency"]) and backend != "process"
    fleet = Fleet(make_config(backend, int(params["workers"])),
                  driver=make_driver())
    try:
        if hook_latency:
            for vehicle in fleet.vehicles.values():
                vehicle.world.kernel.security.enable_hook_latency()
        def stage_rollout(target) -> None:
            if params["rollout"]:
                target.stage_rollout(make_bundle(
                    1, DEFAULT_SACK_POLICY,
                    signer=BundleSigner(target.config.fleet_key)))

        stage_rollout(fleet)
        report = fleet.run(epochs).report

        metrics: Dict[str, float] = {
            "fleet_vehicles_per_second": report.vehicles_per_second(),
            "fleet_compute_makespan_ms":
                report.compute_makespan_ns / 1e6,
            "fleet_transitions": float(report.total_transitions),
            "fleet_bus_copies_delivered":
                float(report.bus_stats.get("copies_delivered", 0)),
            "fleet_violations": float(len(report.violations)),
        }
        obs: Dict[str, object] = {
            "counters": report.counters,
            "fingerprint": report.fingerprint(),
            "rollout": report.rollout,
            "bus": report.bus_stats,
        }
        if hook_latency:
            rows = []
            for vehicle in fleet.vehicles.values():
                summary = vehicle.world.kernel.security \
                    .hook_latency_summary()
                rows.extend(summary.values())
            if rows:
                total = sum(r["count"] for r in rows)
                metrics["hook_mean_ns"] = sum(
                    r["count"] * r["mean_ns"] for r in rows) / total
                metrics["hook_p99_ns"] = max(r["p99_ns"] for r in rows)
            obs["hook_latency"] = {
                vid: v.world.kernel.security.hook_latency_summary()
                for vid, v in sorted(fleet.vehicles.items())}
    finally:
        fleet.close()
    if backend == "process":
        # Shadow run on the serial backend at one worker (every tick on
        # one clock): the recorded fleet_mp_speedup gate defends the
        # multiprocessing win, and the fingerprint pair doubles as an
        # in-suite conformance check.
        shadow = Fleet(make_config("serial", 1), driver=make_driver())
        try:
            # Identical workload — only the backend differs.
            stage_rollout(shadow)
            shadow_report = shadow.run(epochs).report
        finally:
            shadow.close()
        shadow_vps = shadow_report.vehicles_per_second()
        metrics["fleet_mp_speedup"] = (
            report.vehicles_per_second() / shadow_vps
            if shadow_vps else 0.0)
        obs["shadow_fingerprint"] = shadow_report.fingerprint()
        obs["mp_bit_identical"] = (report.fingerprint()
                                   == shadow_report.fingerprint())
    return metrics, obs


def _run_chaos_cell(params: Dict[str, object]
                    ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Seeded fault-injection run.  A cell whose SSM never commits a
    transition checks the invariants over a situation that never
    changes, so it fails rather than pass vacuously."""
    from ..faults.chaos import run_chaos
    report = run_chaos(int(params["seed"]), ticks=int(params["ticks"]),
                       mode=str(params["mode"]),
                       intensity=float(params["fault_intensity"]))
    if not report.transitions:
        raise RuntimeError(
            f"chaos cell (seed {params['seed']}, {params['ticks']} ticks, "
            f"mode {params['mode']}) committed no SSM transition; "
            f"raise its ticks")
    faults_fired = sum(row.get("injected", 0)
                       for row in report.fault_report.values())
    metrics: Dict[str, float] = {
        "chaos_transitions": float(len(report.transitions)),
        "chaos_faults_injected": float(faults_fired),
        "chaos_violations": float(len(report.violations)),
        "chaos_spans": float(len(report.spans)),
    }
    obs: Dict[str, object] = {
        "stats": report.stats,
        "fault_report": report.fault_report,
        "fingerprint": report.fingerprint(),
        "final_state": report.final_state,
    }
    return metrics, obs


def _run_recovery_cell(params: Dict[str, object]
                       ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Crash-and-recover cell: one forced crash (plus optional random
    crash faults), measuring virtual restore downtime and determinism."""
    from ..faults import points as fault_points
    from ..faults.plan import FaultRule
    from ..fleet.orchestrator import Fleet, FleetConfig

    epochs = int(params["epochs"])
    crash_epoch = max(0, min(int(params["crash_epoch"]), epochs - 1))

    def run_once():
        fleet = Fleet(FleetConfig(
            n_vehicles=int(params["vehicles"]),
            seed=int(params["seed"]),
            workers=int(params["workers"]),
            checkpoint_interval_epochs=
            int(params["checkpoint_interval"])))
        probability = float(params["crash_probability"])
        if probability > 0:
            fleet.fleet_plan.add_rule(FaultRule(
                point=fault_points.FLEET_VEHICLE_CRASH,
                probability=probability))
        fleet.force_crash(fleet.ids[0], epoch=crash_epoch)
        return fleet, fleet.run(epochs).report

    fleet, report = run_once()
    second_fleet, second = run_once()
    second_fleet.close()
    resilience = report.resilience
    metrics: Dict[str, float] = {
        "recovery_restore_latency_ns":
            float(fleet.supervisor.mean_restore_latency_ns() or 0.0),
        "recovery_crashes": float(resilience.get("crashes", 0)),
        "recovery_restores": float(resilience.get("restores", 0)),
        "recovery_quarantined": float(resilience.get("quarantined", 0)),
        "recovery_violations": float(len(report.violations)),
        "recovery_determinism_ratio":
            1.0 if report.fingerprint() == second.fingerprint() else 0.0,
    }
    obs: Dict[str, object] = {
        "resilience": resilience,
        "fingerprint": report.fingerprint(),
        "violations": list(report.violations),
        "checkpoints": fleet.host.checkpoint_rows(),
    }
    fleet.close()
    return metrics, obs


def _boot_avc_world(rules: int, cache_enabled: bool):
    from ..kernel import OpenFlags, user_credentials
    from .harness import CONFIG_SACK_INDEPENDENT, build_world
    world = build_world(CONFIG_SACK_INDEPENDENT,
                        policy_text=avc_bench_policy(rules))
    kernel = world.kernel
    kernel.security.avc.enabled = cache_enabled
    kernel.vfs.makedirs("/dev/car")
    kernel.vfs.create_file("/dev/car/probe", mode=0o666)
    task = kernel.sys_fork(kernel.procs.init)
    task.comm = "bench_app"
    task.cred = user_credentials(1000)
    fd = kernel.sys_open(task, "/dev/car/probe", OpenFlags.O_RDONLY)
    file = task.get_fd(fd).obj
    return kernel, task, file


def _run_avc_cell(params: Dict[str, object]
                  ) -> Tuple[Dict[str, float], Dict[str, object]]:
    from ..kernel import MAY_READ
    rules = int(params["rules"])
    iterations = int(params["iterations"])
    reps = int(params["reps"])

    def loop(security, task, file, n):
        for _ in range(n):
            security.file_permission(task, file, MAY_READ)

    hot_kernel, hot_task, hot_file = _boot_avc_world(rules, True)
    cold_kernel, cold_task, cold_file = _boot_avc_world(rules, False)
    loop(hot_kernel.security, hot_task, hot_file, 10)  # warm the cache
    hot = best_of(lambda: loop(hot_kernel.security, hot_task, hot_file,
                               iterations), reps=reps)
    cold = best_of(lambda: loop(cold_kernel.security, cold_task,
                                cold_file, iterations), reps=reps)
    metrics: Dict[str, float] = {
        "avc_cached_ns_per_op": hot / iterations * 1e9,
        "avc_uncached_ns_per_op": cold / iterations * 1e9,
        "avc_speedup": cold / hot if hot else 0.0,
    }
    # A short traced slice for the span CPU breakdown: tracing the timed
    # loops would perturb them, so the capture runs after measurement.
    spans = hot_kernel.obs.spans
    spans.enable()
    spans.trace_all_hooks()
    loop(hot_kernel.security, hot_task, hot_file, 25)
    obs: Dict[str, object] = {
        "counters": _fold_counters([hot_kernel]),
        "span_breakdown": spans.breakdown(),
        "avc": {"hits": hot_kernel.security.avc.core.hits,
                "misses": hot_kernel.security.avc.core.misses},
    }
    return metrics, obs


def _run_hooks_cell(params: Dict[str, object]
                    ) -> Tuple[Dict[str, float], Dict[str, object]]:
    from .harness import run_hook_latency_breakdown
    breakdown = run_hook_latency_breakdown(
        scale=float(params["scale"]))
    metrics: Dict[str, float] = {}
    for config, hooks in breakdown.items():
        if not hooks:
            continue
        total = sum(r["count"] for r in hooks.values())
        key = config.replace("-", "_")
        metrics[f"hooks_{key}_mean_ns"] = sum(
            r["count"] * r["mean_ns"] for r in hooks.values()) / total
        metrics[f"hooks_{key}_p99_ns"] = max(
            r["p99_ns"] for r in hooks.values())
    return metrics, {"hook_latency": breakdown}


def _run_telemetry_cell(params: Dict[str, object]
                        ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Telemetry-overhead cell: the same seeded fleet with the pipeline
    off and on.  Both runs are on the virtual clock, so the overhead
    percentage is deterministic — the modelled per-frame scrape cost
    against fleet throughput, not host noise."""
    from ..fleet.orchestrator import Fleet, FleetConfig

    base = dict(n_vehicles=int(params["vehicles"]),
                seed=int(params["seed"]),
                workers=int(params["workers"]))
    epochs = int(params["epochs"])
    off_fleet = Fleet(FleetConfig(**base))
    off = off_fleet.run(epochs).report
    off_fleet.close()
    on_fleet = Fleet(FleetConfig(
        **base, telemetry=True,
        telemetry_short_window_epochs=int(params["short_window"]),
        telemetry_long_window_epochs=int(params["long_window"])))
    on = on_fleet.run(epochs).report
    on_fleet.close()
    vps_off = off.vehicles_per_second()
    vps_on = on.vehicles_per_second()
    overhead_pct = ((vps_off - vps_on) / vps_off * 100.0
                    if vps_off > 0 else 0.0)
    telemetry = on.telemetry
    metrics: Dict[str, float] = {
        "telemetry_overhead_pct": overhead_pct,
        "telemetry_vehicles_per_second": vps_on,
        "telemetry_frames": float(telemetry.get("frames", 0)),
        "telemetry_series_tracked":
            float(telemetry.get("series_tracked", 0)),
        "telemetry_slo_alerts":
            float(telemetry.get("slo", {}).get("alerts_total", 0)),
    }
    obs: Dict[str, object] = {
        "rollup_digest": telemetry.get("rollup_digest"),
        "rollups": telemetry.get("rollups"),
        "overhead": telemetry.get("overhead"),
        "fingerprint_off": off.fingerprint(),
        "fingerprint_on": on.fingerprint(),
    }
    return metrics, obs


def _run_verify_cell(params: Dict[str, object]
                     ) -> Tuple[Dict[str, float], Dict[str, object]]:
    """Static-checker cell: prove P1–P5 over an OTA revision chain.

    The chain is the built-in IVI policy plus renamed copies of itself,
    so every cell is self-contained (no example files) and every
    revision verifies clean; the interesting outputs are proof effort
    (decision-oracle checks — deterministic for a given chain) and the
    checker's wall-time per check.
    """
    from ..vehicle.devices import IOCTL_SYMBOLS
    from ..vehicle.ivi import DEFAULT_SACK_POLICY
    from ..verify import verify_policies

    revisions = int(params["revisions"])
    reps = int(params["reps"])
    chain = [DEFAULT_SACK_POLICY]
    for i in range(1, revisions):
        chain.append(DEFAULT_SACK_POLICY.replace(
            "policy ivi_default;", f"policy ivi_rev{i};", 1))

    last: Dict[str, object] = {}

    def prove() -> None:
        last["report"] = verify_policies(chain,
                                         ioctl_symbols=IOCTL_SYMBOLS)

    wall_s = best_of(prove, reps=reps)
    report = last["report"]
    stats = report.model_stats
    checks = int(stats["checks"])
    metrics: Dict[str, float] = {
        "verify_wall_ms": wall_s * 1e3,
        "verify_check_ns": (wall_s / checks * 1e9) if checks else 0.0,
        "verify_states_per_second": (stats["states"] / wall_s
                                     if wall_s > 0 else 0.0),
        "verify_model_states": float(stats["states"]),
        "verify_model_edges": float(stats["transitions"]),
        "verify_decision_checks": float(checks),
        "verify_properties": float(len(report.results)),
        "verify_violations": float(len(report.failed_properties)),
    }
    obs: Dict[str, object] = {
        "model": dict(stats),
        "policies": list(report.policy_names),
        "properties": [{"prop_id": r.prop_id, "passed": r.passed,
                        "checks": r.checks, "elapsed_ns": r.elapsed_ns}
                       for r in report.results],
    }
    return metrics, obs


_EXECUTORS: Dict[str, Callable[[Dict[str, object]],
                               Tuple[Dict[str, float],
                                     Dict[str, object]]]] = {
    "fleet": _run_fleet_cell,
    "chaos": _run_chaos_cell,
    "recovery": _run_recovery_cell,
    "avc": _run_avc_cell,
    "hooks": _run_hooks_cell,
    "telemetry": _run_telemetry_cell,
    "verify": _run_verify_cell,
}

#: Workloads whose metrics gate against another workload's trajectory
#: file (recovery cells ride the chaos set: both exercise fault paths;
#: telemetry cells are an observability workload and ride the obs set).
_METRIC_SET_ALIASES: Dict[str, str] = {"recovery": "chaos",
                                       "telemetry": "obs"}


def run_cell(cell: SweepCell) -> Dict[str, object]:
    """Execute one cell; returns its JSON-ready result document."""
    params = cell.param_dict
    executor = _EXECUTORS[cell.workload]
    trace_memory = bool(params.get("measure_memory"))
    start = time.perf_counter()
    if trace_memory:
        # tracemalloc roughly doubles allocation cost, so it is only
        # armed for virtual-clock workloads whose gate metrics cannot
        # see host slowdowns (fleet, chaos); wall-clock cells keep it
        # off by default.
        tracemalloc.start()
        try:
            metrics, obs = executor(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        metrics["peak_mem_kb"] = peak / 1024.0
    else:
        metrics, obs = executor(params)
    wall_s = time.perf_counter() - start
    return {
        "cell": cell.cell_id,
        "scenario": cell.scenario,
        "workload": cell.workload,
        "params": params,
        "metrics": metrics,
        "observability": obs,
        "wall_time_s": round(wall_s, 3),
    }


# -- the batch runner ----------------------------------------------------------

@dataclasses.dataclass
class SuiteRun:
    """A completed (or dry-run) suite invocation."""

    config: SuiteConfig
    cells: List[SweepCell]
    run_dir: Optional[str] = None
    results: List[Dict[str, object]] = dataclasses.field(
        default_factory=list)

    def summary_cells(self) -> List[Dict[str, object]]:
        return [{"cell": r["cell"], "workload": r["workload"],
                 "metrics": r["metrics"]} for r in self.results]

    def gate_metrics_by_set(self) -> Dict[str, Dict[str, float]]:
        """Fold cell metrics per metric set (= workload name).

        When a sweep produces the same metric in several cells (four
        fleet cells all report ``fleet_vehicles_per_second``), the fold
        keeps the *worst* value per gate direction — the gate then
        defends the weakest cell, not the luckiest.
        """
        from .trajectory import direction_of
        folded: Dict[str, Dict[str, float]] = {}
        for result in self.results:
            metric_set = _METRIC_SET_ALIASES.get(result["workload"],
                                                 result["workload"])
            bucket = folded.setdefault(metric_set, {})
            for metric, value in result["metrics"].items():
                direction = direction_of(metric)
                if metric not in bucket:
                    bucket[metric] = float(value)
                elif direction == "higher":
                    bucket[metric] = min(bucket[metric], float(value))
                elif direction == "lower":
                    bucket[metric] = max(bucket[metric], float(value))
        return folded


def run_suite(config: SuiteConfig, out_root: Optional[str] = None,
              dry_run: bool = False,
              show: Callable[[str], None] = lambda line: None
              ) -> SuiteRun:
    """Expand, validate, and (unless *dry_run*) execute every cell."""
    cells = expand_cells(config)
    run = SuiteRun(config=config, cells=cells)
    if dry_run:
        return run

    stamp = utc_now_iso().replace(":", "").replace("-", "") \
        .split("+")[0]
    run_id = f"{config.name}-{stamp}-{config.config_hash()}"
    run_dir = os.path.join(out_root or config.out, run_id)
    os.makedirs(os.path.join(run_dir, "cells"), exist_ok=True)
    run.run_dir = run_dir

    started = time.perf_counter()
    for index, cell in enumerate(cells):
        show(f"[{index + 1}/{len(cells)}] {cell.cell_id}")
        result = run_cell(cell)
        run.results.append(result)
        cell_doc = make_envelope("suite-cell", result,
                                 seed=cell.param_dict.get("seed"))
        with open(os.path.join(run_dir, "cells",
                               f"{cell.cell_id}.json"),
                  "w", encoding="utf-8") as fh:
            json.dump(cell_doc, fh, indent=2)
    wall_s = time.perf_counter() - started

    resolved = config.to_dict()
    with open(os.path.join(run_dir, "config.json"), "w",
              encoding="utf-8") as fh:
        json.dump(resolved, fh, indent=2)
    manifest = make_envelope("suite-run", {
        "suite": config.name,
        "config_hash": config.config_hash(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "gates": dict(config.gates),
        "cells": [c.cell_id for c in cells],
        "wall_time_s": round(wall_s, 3),
    })
    with open(os.path.join(run_dir, "manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    summary = make_envelope("suite-summary", {
        "suite": config.name,
        "config_hash": config.config_hash(),
        "gates": dict(config.gates),
        "cells": run.summary_cells(),
        "by_metric_set": run.gate_metrics_by_set(),
    })
    with open(os.path.join(run_dir, "summary.json"), "w",
              encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2)
    return run


def load_run_summary(run_dir: str) -> Dict[str, object]:
    from .envelope import check_envelope
    with open(os.path.join(run_dir, "summary.json"), "r",
              encoding="utf-8") as fh:
        return check_envelope(json.load(fh))


def latest_run_dir(out_root: str) -> str:
    """Newest run directory (by name, which embeds the UTC stamp)."""
    candidates = sorted(
        entry for entry in os.listdir(out_root)
        if os.path.isfile(os.path.join(out_root, entry, "summary.json")))
    if not candidates:
        raise FileNotFoundError(
            f"no completed suite runs under {out_root}")
    return os.path.join(out_root, candidates[-1])


def check_run(run_dir: str, trajectory_dir: str):
    """Gate a run against the committed trajectory.

    Returns ``(regressions, checked)`` where *checked* lists every
    ``metric_set/metric`` pair that was actually compared (a gate over a
    metric the run never produced, or with no committed baseline, is
    skipped — the caller can surface that).
    """
    from .trajectory import (DEFAULT_TOLERANCE_PCT, check_metrics,
                             direction_of, load_or_new)
    summary = load_run_summary(run_dir)
    data = summary["data"]
    gates = data.get("gates") or {}
    by_set = data.get("by_metric_set") or {}
    source = _suite_source(data)
    regressions = []
    checked: List[str] = []
    for metric_set, metrics in sorted(by_set.items()):
        relevant = {m: t for m, t in gates.items() if m in metrics}
        if not relevant:
            continue
        trajectory = load_or_new(trajectory_dir, metric_set)
        for metric in relevant:
            if trajectory.latest_value(metric, source=source) \
                    is not None and direction_of(metric) is not None:
                checked.append(f"{metric_set}/{metric}")
        regressions.extend(check_metrics(
            trajectory, metrics, relevant,
            default_tolerance_pct=DEFAULT_TOLERANCE_PCT,
            source=source))
    return regressions, checked


def _suite_source(summary_data: Dict[str, object]) -> str:
    """The trajectory ``source`` tag for a suite run's records.

    Baselines are suite-scoped (``suite:smoke`` vs ``suite:mp``): two
    suites folding the same metric over different cell populations must
    not serve as each other's baselines.
    """
    return f"suite:{summary_data.get('suite', 'unknown')}"


def append_run_to_trajectory(run_dir: str, trajectory_dir: str
                             ) -> List[str]:
    """Append a run's per-set gate metrics to the trajectory files."""
    from .trajectory import load_or_new, trajectory_path
    summary = load_run_summary(run_dir)
    data = summary["data"]
    updated: List[str] = []
    for metric_set, metrics in sorted(
            (data.get("by_metric_set") or {}).items()):
        if not metrics:
            continue
        trajectory = load_or_new(trajectory_dir, metric_set)
        trajectory.append(metrics, source=_suite_source(data),
                          sha=summary.get("git_sha"))
        path = trajectory_path(trajectory_dir, metric_set)
        trajectory.save(path)
        updated.append(path)
    return updated
