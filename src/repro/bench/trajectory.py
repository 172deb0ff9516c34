"""The persisted perf trajectory: append-only ``BENCH_*.json`` history.

Each *metric set* (``avc``, ``obs``, ``fleet``, ``chaos``, ``verify``)
has an append-only, schema-versioned history file committed under
``benchmarks/trajectory/``::

    {
      "schema": "sack-bench-trajectory/v1",
      "metric_set": "verify",
      "records": [
        {"git_sha": ..., "timestamp": ..., "seed": ..., "source": ...,
         "metrics": {"verify_wall_ms": 13.3, ...}},
        ...
      ]
    }

Records are appended, never rewritten — the git history plus the record
list *is* the trajectory.  :func:`check_metrics` compares a fresh run
against the newest committed value of each metric, direction-aware
(speedup up is good; ns/op up is bad), and reports every breach of
its tolerance.  ``sack-bench suite check`` turns those breaches into a
non-zero exit, which is what the CI regression gate keys on.
:func:`render_report` renders the history as the markdown trend tables
committed in ``docs/perf-trajectory.md``.
"""

from __future__ import annotations

import dataclasses
import json
import os
from typing import Dict, List, Optional, Sequence

from .envelope import git_sha, utc_now_iso

#: Trajectory schema identifier; bump on incompatible record changes.
TRAJECTORY_SCHEMA = "sack-bench-trajectory/v1"

#: Default tolerance (percent) when a gate names no explicit threshold.
DEFAULT_TOLERANCE_PCT = 20.0

#: Metric-name suffixes that mean "smaller is better".  Anything not
#: matched here or in _HIGHER_SUFFIXES must be declared explicitly via
#: a gate entry; :func:`direction_of` then refuses to guess.
_LOWER_SUFFIXES = ("_ns", "_us", "_ms", "_ns_per_op", "_us_per_event",
                   "_kb", "_bytes", "_pct", "_crossings", "_violations")

#: Substrings that mean "bigger is better" (checked first, anywhere in
#: the name, so per-axis variants like ``speedup_1_to_4`` still match).
_HIGHER_MARKERS = ("per_second", "speedup", "accuracy_pct", "ratio",
                   "throughput", "vps")


def direction_of(metric: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` is better, or None if unknown."""
    for marker in _HIGHER_MARKERS:
        if marker in metric:
            return "higher"
    for suffix in _LOWER_SUFFIXES:
        if metric.endswith(suffix):
            return "lower"
    return None


@dataclasses.dataclass
class Regression:
    """One gate breach: a metric moved the wrong way past tolerance."""

    metric_set: str
    metric: str
    baseline: float
    current: float
    delta_pct: float
    tolerance_pct: float

    def __str__(self) -> str:
        return (f"{self.metric_set}/{self.metric}: "
                f"{self.baseline:g} -> {self.current:g} "
                f"({self.delta_pct:+.1f}%, tolerance "
                f"{self.tolerance_pct:.0f}%)")


class Trajectory:
    """One metric set's append-only history file."""

    def __init__(self, metric_set: str,
                 records: Optional[List[Dict[str, object]]] = None):
        self.metric_set = metric_set
        self.records: List[Dict[str, object]] = list(records or [])

    # -- persistence -------------------------------------------------------

    @classmethod
    def load(cls, path: str) -> "Trajectory":
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or \
                doc.get("schema") != TRAJECTORY_SCHEMA:
            raise ValueError(
                f"{path}: not a {TRAJECTORY_SCHEMA} trajectory file")
        records = doc.get("records")
        if not isinstance(records, list):
            raise ValueError(f"{path}: 'records' must be a list")
        return cls(str(doc.get("metric_set", "unknown")), records)

    def save(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "schema": TRAJECTORY_SCHEMA,
                "metric_set": self.metric_set,
                "records": self.records,
            }, fh, indent=2, sort_keys=False)
            fh.write("\n")

    # -- record access -----------------------------------------------------

    def append(self, metrics: Dict[str, float],
               seed: Optional[int] = None, source: str = "suite",
               sha: Optional[str] = None,
               timestamp: Optional[str] = None) -> Dict[str, object]:
        clean = {}
        for name, value in metrics.items():
            if isinstance(value, bool) or \
                    not isinstance(value, (int, float)):
                raise ValueError(
                    f"metric {name!r} must be numeric, got {value!r}")
            clean[name] = float(value)
        record = {
            "git_sha": sha if sha is not None else git_sha(),
            "timestamp": timestamp or utc_now_iso(),
            "seed": seed,
            "source": source,
            "metrics": clean,
        }
        self.records.append(record)
        return record

    def latest_value(self, metric: str,
                     source: Optional[str] = None) -> Optional[float]:
        """Newest committed value of *metric*, scanning backwards.

        With *source*, records from that exact source are preferred —
        two suites may legitimately report the same metric over
        different cell populations (smoke's two-revision proof, a
        local suite's longer OTA chains), and a gate
        must compare a run against its own lineage, not whichever suite
        appended last.  If no same-source record carries the metric the
        scan falls back to any source, so the first run of a renamed or
        new suite still inherits a baseline instead of silently passing.
        """
        if source is not None:
            for record in reversed(self.records):
                if record.get("source") != source:
                    continue
                metrics = record.get("metrics") or {}
                if metric in metrics:
                    return float(metrics[metric])
        for record in reversed(self.records):
            metrics = record.get("metrics") or {}
            if metric in metrics:
                return float(metrics[metric])
        return None

    def metric_names(self) -> List[str]:
        names: List[str] = []
        for record in self.records:
            for name in (record.get("metrics") or {}):
                if name not in names:
                    names.append(name)
        return names


def trajectory_path(trajectory_dir: str, metric_set: str) -> str:
    return os.path.join(trajectory_dir, f"BENCH_{metric_set}.json")


def load_or_new(trajectory_dir: str, metric_set: str) -> Trajectory:
    path = trajectory_path(trajectory_dir, metric_set)
    if os.path.exists(path):
        return Trajectory.load(path)
    return Trajectory(metric_set)


def check_metrics(trajectory: Trajectory, metrics: Dict[str, float],
                  gates: Dict[str, float],
                  default_tolerance_pct: float = DEFAULT_TOLERANCE_PCT,
                  source: Optional[str] = None,
                  ) -> List[Regression]:
    """Compare *metrics* against the trajectory's newest baselines.

    Only metrics named in *gates* (metric -> tolerance percent; None
    picks the default) are enforced — wall-clock metrics too noisy to
    gate still get recorded, they just never fail the build.  A gated
    metric with no committed baseline or no known direction is skipped:
    the first run *establishes* the baseline rather than failing it.
    A zero baseline has no percentage scale: a lower-is-better metric
    then regresses on any positive value, a higher-is-better one never.
    *source* scopes baseline lookup to same-source records first (see
    :meth:`Trajectory.latest_value`).
    """
    regressions: List[Regression] = []
    for metric, tolerance in gates.items():
        tol = default_tolerance_pct if tolerance is None \
            else float(tolerance)
        if metric not in metrics:
            continue
        baseline = trajectory.latest_value(metric, source=source)
        direction = direction_of(metric)
        if baseline is None or direction is None:
            continue
        current = float(metrics[metric])
        if baseline == 0:
            delta_pct = float("inf") if current > 0 else 0.0
            regressed = direction == "lower" and current > 0
        else:
            delta_pct = (current - baseline) / abs(baseline) * 100.0
            regressed = delta_pct < -tol if direction == "higher" \
                else delta_pct > tol
        if regressed:
            regressions.append(Regression(
                metric_set=trajectory.metric_set, metric=metric,
                baseline=baseline, current=current,
                delta_pct=delta_pct, tolerance_pct=tol))
    return regressions


# -- pytest-benchmark ingestion ------------------------------------------------

def metrics_from_pytest_benchmark(doc: Dict[str, object]
                                  ) -> Dict[str, float]:
    """Flatten a ``--benchmark-json`` document into trajectory metrics.

    Each benchmark contributes its mean wall-clock seconds as
    ``<name>_mean_ns`` plus every numeric scalar from ``extra_info``
    (prefixed with the benchmark name; nested dicts flatten with their
    key path).  That captures exactly the numbers the benchmark files
    advertise — ``speedup``, copies delivered, per-op latencies —
    under stable, direction-inferable names.
    """
    out: Dict[str, float] = {}

    def put(name: str, value) -> None:
        if isinstance(value, bool):
            return
        if isinstance(value, (int, float)):
            out[name] = float(value)

    def flatten(prefix: str, value) -> None:
        if isinstance(value, dict):
            for key, sub in value.items():
                flatten(f"{prefix}_{key}", sub)
        else:
            put(prefix, value)

    for bench in doc.get("benchmarks", []):
        raw = str(bench.get("name", "bench"))
        name = raw.removeprefix("test_")
        stats = bench.get("stats") or {}
        if isinstance(stats.get("mean"), (int, float)):
            put(f"{name}_mean_ns", stats["mean"] * 1e9)
        extra = bench.get("extra_info") or {}
        for key, value in extra.items():
            # extra_info keys already carry their own unit suffixes
            # (speedup, *_ns_per_op, *_per_second); nested dicts
            # (nested maps, hook breakdowns) flatten by key path.
            flatten(f"{name}_{key}", value)
    return out


def ingest_pytest_benchmark(trajectory_dir: str, metric_set: str,
                            bench_json_path: str,
                            seed: Optional[int] = None,
                            sha: Optional[str] = None) -> Trajectory:
    """Append one pytest-benchmark JSON file to a trajectory and save."""
    with open(bench_json_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    metrics = metrics_from_pytest_benchmark(doc)
    if not metrics:
        raise ValueError(f"{bench_json_path}: no benchmarks to ingest")
    trajectory = load_or_new(trajectory_dir, metric_set)
    trajectory.append(metrics, seed=seed, source="pytest-benchmark",
                      sha=sha)
    trajectory.save(trajectory_path(trajectory_dir, metric_set))
    return trajectory


def load_all(trajectory_dir: str) -> List[Trajectory]:
    """Every ``BENCH_*.json`` trajectory under *trajectory_dir*."""
    out: List[Trajectory] = []
    if not os.path.isdir(trajectory_dir):
        return out
    for name in sorted(os.listdir(trajectory_dir)):
        if name.startswith("BENCH_") and name.endswith(".json"):
            out.append(Trajectory.load(
                os.path.join(trajectory_dir, name)))
    return out


# -- markdown report ------------------------------------------------------------

def render_trend_table(trajectory: Trajectory,
                       max_metrics: int = 8) -> List[str]:
    """Markdown trend table: one row per committed record."""
    # Metrics the newest record still carries first (retired ones stay
    # in the history but yield their columns), then ratio/throughput
    # metrics (the headline gates), then the shortest latency names —
    # flattened per-hook breakdown metrics are long, so they fall off
    # the end of the column budget.
    current = (trajectory.records[-1].get("metrics") or {}) \
        if trajectory.records else {}
    candidates = [n for n in trajectory.metric_names()
                  if direction_of(n) is not None]
    names = sorted(candidates,
                   key=lambda n: (n not in current,
                                  direction_of(n) != "higher",
                                  len(n), n))[:max_metrics]
    if not names or not trajectory.records:
        return ["*(empty trajectory)*"]
    header = "| commit | when | " + " | ".join(names) + " |"
    rule = "|---" * (len(names) + 2) + "|"
    lines = [header, rule]
    previous: Dict[str, float] = {}
    for record in trajectory.records:
        metrics = record.get("metrics") or {}
        cols = []
        for name in names:
            if name not in metrics:
                cols.append("—")
                continue
            value = float(metrics[name])
            cell = f"{value:g}"
            if name in previous and previous[name]:
                delta = (value - previous[name]) / abs(previous[name]) \
                    * 100.0
                cell += f" ({delta:+.1f}%)"
            previous[name] = value
            cols.append(cell)
        sha = str(record.get("git_sha", "?"))[:10]
        when = str(record.get("timestamp", "?"))[:10]
        lines.append(f"| `{sha}` | {when} | " + " | ".join(cols) + " |")
    return lines


def render_report(trajectories: Sequence[Trajectory]) -> str:
    """The full markdown report committed under ``docs/``."""
    lines = [
        "# Performance trajectory",
        "",
        "Generated by `sack-bench suite report` from the committed",
        "`benchmarks/trajectory/BENCH_*.json` history — do not edit by",
        "hand.  See [benchmarking.md](benchmarking.md) for how records",
        "are appended and gated.",
        "",
    ]
    for trajectory in trajectories:
        lines.append(f"## Trend — `{trajectory.metric_set}`")
        lines.append("")
        lines.extend(render_trend_table(trajectory))
        lines.append("")
    return "\n".join(lines)
