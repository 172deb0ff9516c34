"""Metrics: counters, gauges, and latency histograms with exporters.

A single registry per kernel holds every instrument, keyed by
``(name, labels)`` exactly as Prometheus models series.  Two things keep it
honest:

* **Collectors.**  Subsystems that already maintain counters (the LSM
  hook counts of :class:`~repro.lsm.probes.HookStats`, the SSM's event
  counters, SACKfs's accept/reject counts) are not mirrored into duplicate
  instruments that could drift — they register a *collector* callback and
  the registry reads the live values at export time.  The ``SACK/stats``
  pseudo-file and the metrics export therefore can never disagree.

* **Histograms.**  Latency distributions use fixed geometric buckets
  (powers of two in nanoseconds), so recording is O(1), memory is bounded,
  and percentiles (p50/p99) come from the cumulative bucket counts.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import (Callable, Dict, Iterable, Iterator, List, NamedTuple,
                    Optional, Sequence, Tuple)

LabelPairs = Tuple[Tuple[str, str], ...]


def _label_key(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    if len(labels) == 1:
        [(k, v)] = labels.items()
        return ((str(k), str(v)),)
    return tuple(sorted([(str(k), str(v)) for k, v in labels.items()]))


def series_key(name: str, labels: Optional[Dict[str, str]]) -> str:
    """``name{label=value,...}`` (or bare ``name``) — the one rendered
    series key, which :func:`repro.fleet.report.aggregate_metrics` also
    uses, so frame series and report counters join on equal strings."""
    if not labels:
        return name
    rendered = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{rendered}}}"


def _escape_label_value(value: str) -> str:
    """Prometheus exposition escaping: ``\\``, ``"`` and newlines."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def _label_str(labels: LabelPairs) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape_label_value(v)}"' for k, v in labels)
    return "{" + inner + "}"


#: Default bucket upper bounds for nanosecond latencies: 2^8 .. 2^30 ns
#: (256 ns .. ~1.07 s), one bucket per power of two.
DEFAULT_NS_BUCKETS: Tuple[int, ...] = tuple(1 << p for p in range(8, 31))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``0 <= q <= 1``) of an unsorted sample:
    the value at index ``floor(n * q)`` of the sorted sample, clamped to
    the last.  The one rule for exact samples (bench timings, fleet
    telemetry rollups); :func:`bucket_percentile` is the bucket rule."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, int(len(ordered) * q))
    return ordered[rank]


def bucket_percentile(bounds: Sequence[float], buckets: Sequence[int],
                      count: int, maximum: Optional[float],
                      q: float) -> float:
    """Percentile *q* of a bucketed distribution, Prometheus-style.

    Returns the upper bound of the bucket holding the q-th sample (the
    ``histogram_quantile`` convention); a sample in the overflow bucket
    (one past *bounds*) reports the observed *maximum*.
    """
    if count == 0:
        return 0.0
    rank = max(1, int(round(count * q / 100.0)))
    seen = 0
    for i, n in enumerate(buckets):
        seen += int(n)
        if seen >= rank:
            if i < len(bounds):
                return float(bounds[i])
            break
    return float(maximum or 0.0)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with O(1) record and percentile estimation."""

    __slots__ = ("bounds", "bucket_counts", "count", "total", "min", "max",
                 "exemplars")

    def __init__(self, bounds: Sequence[float] = DEFAULT_NS_BUCKETS):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted and non-empty")
        self.bounds: Tuple[float, ...] = tuple(bounds)
        # One count per bound plus the +Inf overflow bucket.
        self.bucket_counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        # OpenMetrics exemplars: bucket index -> (trace_id, value) of the
        # latest traced observation landing in that bucket.
        self.exemplars: Dict[int, Tuple[str, float]] = {}

    def record(self, value: float, trace_id: Optional[str] = None) -> None:
        idx = bisect_left(self.bounds, value)
        self.bucket_counts[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if trace_id is not None:
            self.exemplars[idx] = (trace_id, value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate percentile (0 < q <= 100) from bucket boundaries.

        Returns the upper bound of the bucket holding the q-th sample —
        the standard Prometheus ``histogram_quantile`` convention.  The
        overflow bucket reports the observed maximum.
        """
        if not 0 < q <= 100:
            raise ValueError("percentile out of range")
        return bucket_percentile(self.bounds, self.bucket_counts,
                                 self.count, self.max, q)

    def summary(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "min": self.min or 0.0,
            "max": self.max or 0.0,
        }


class Sample(NamedTuple):
    """One exported series value (collectors return these)."""

    name: str
    labels: LabelPairs
    kind: str                  # "counter" | "gauge"
    value: float


#: A collector yields ``(name, labels, kind, value)`` rows from live
#: external state at export time: :class:`Sample` rows, or plain tuples
#: whose *labels* are already sorted :data:`LabelPairs` — what the
#: per-frame collectors return, since a telemetry frame reads every row.
Collector = Callable[[], Iterable[Tuple[str, LabelPairs, str, float]]]


def sample(name: str, labels: Optional[Dict[str, str]], kind: str,
           value: float) -> Sample:
    """Convenience constructor used by collector callbacks."""
    return Sample(name, _label_key(labels) if labels else (), kind,
                  float(value))


#: Default ceiling on distinct label-sets per metric name.  A runaway
#: label (a path, a free-form subject) can otherwise grow a registry
#: without bound; past the budget new series are silently detached and
#: counted in ``metrics_series_dropped{metric=...}``.
DEFAULT_MAX_SERIES_PER_METRIC = 512


class MetricsRegistry:
    """All instruments of one kernel plus registered collectors.

    Label-set cardinality is bounded per metric name: once a metric has
    :attr:`max_series_per_metric` distinct label-sets, accessors for new
    label-sets return a *detached* instrument (callers keep working, the
    data is dropped) and the ``metrics_series_dropped`` counter records
    the drop — bounded memory, never a silent lie.
    """

    def __init__(self, max_series_per_metric: int =
                 DEFAULT_MAX_SERIES_PER_METRIC):
        if max_series_per_metric < 1:
            raise ValueError("max_series_per_metric must be >= 1")
        self.max_series_per_metric = max_series_per_metric
        self._counters: Dict[Tuple[str, LabelPairs], Counter] = {}
        self._gauges: Dict[Tuple[str, LabelPairs], Gauge] = {}
        self._histograms: Dict[Tuple[str, LabelPairs], Histogram] = {}
        self._collectors: List[Collector] = []
        #: Distinct registered label-sets per metric name.
        self._series_count: Dict[str, int] = {}
        #: Drops per metric name (exported as metrics_series_dropped).
        self._series_dropped: Dict[str, int] = {}
        #: (name, labels) -> rendered series key, for instruments and
        #: labelled collector rows alike (see :meth:`series`); as large
        #: as the set of series the registry exports.
        self._series_keys: Dict[Tuple[str, LabelPairs], str] = {}
        #: (rendered key, instrument) per kind, in registration order:
        #: what :meth:`series` reads, rendering nothing per frame.
        self._counter_keys: List[Tuple[str, Counter]] = []
        self._gauge_keys: List[Tuple[str, Gauge]] = []
        self._histogram_keys: List[Tuple[str, Histogram]] = []

    def _admit(self, name: str) -> bool:
        """Charge one new series against *name*'s budget."""
        used = self._series_count.get(name, 0)
        if used >= self.max_series_per_metric:
            self._series_dropped[name] = \
                self._series_dropped.get(name, 0) + 1
            return False
        self._series_count[name] = used + 1
        return True

    def _register(self, store: dict, keyed: list,
                  series: Tuple[str, LabelPairs], instrument) -> None:
        """Admit a new instrument under *series*, if its budget allows."""
        if self._admit(series[0]):
            store[series] = instrument
            keyed.append((self._render(series), instrument))

    @property
    def series_dropped(self) -> Dict[str, int]:
        return dict(self._series_dropped)

    # -- instrument accessors (create on first use) ------------------------
    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        key = (name, _label_key(labels))
        instrument = self._counters.get(key)
        if instrument is None:
            instrument = Counter()
            self._register(self._counters, self._counter_keys, key,
                           instrument)
        return instrument

    def gauge(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        key = (name, _label_key(labels))
        instrument = self._gauges.get(key)
        if instrument is None:
            instrument = Gauge()
            self._register(self._gauges, self._gauge_keys, key, instrument)
        return instrument

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  bounds: Sequence[float] = DEFAULT_NS_BUCKETS) -> Histogram:
        key = (name, _label_key(labels))
        instrument = self._histograms.get(key)
        if instrument is None:
            instrument = Histogram(bounds)
            self._register(self._histograms, self._histogram_keys, key,
                           instrument)
        return instrument

    def register_collector(self, collector: Collector) -> None:
        if collector not in self._collectors:
            self._collectors.append(collector)

    def counter_totals(self, names: Sequence[str]) -> Dict[str, int]:
        """Per-name sum over every registered counter series of *names*.

        Reads the instruments directly, without :meth:`to_dict`'s full
        serialisation; collector samples are not included.
        """
        totals = dict.fromkeys(names, 0)
        for (name, _labels), instrument in self._counters.items():
            if name in totals:
                totals[name] += int(instrument.value)
        return totals

    def histograms_named(self, name: str) -> Dict[LabelPairs, Histogram]:
        return {labels: h for (n, labels), h in self._histograms.items()
                if n == name}

    # -- export ------------------------------------------------------------
    def _collector_rows(self) -> Iterator[Tuple[str, LabelPairs, str,
                                                float]]:
        """Every collector row, then the registry's own drop counts."""
        for collector in self._collectors:
            yield from collector()
        # Registry self-accounting: only present once a drop happened,
        # so bounded-but-unexercised registries export byte-identically.
        for name in sorted(self._series_dropped):
            yield ("metrics_series_dropped", (("metric", name),), "counter",
                   self._series_dropped[name])

    def _collected(self) -> List[Sample]:
        return [Sample(name, labels, kind, float(value))
                for name, labels, kind, value in self._collector_rows()]

    def series(self) -> Tuple[Dict[str, float], Dict[str, float],
                              Dict[str, Dict[str, object]]]:
        """``(counters, gauges, histograms)`` keyed by rendered series key.

        The telemetry frame's reader: it folds the same series
        :meth:`to_dict` exports, without building rows, sorting or
        computing percentiles.  Instruments carry their key from
        registration and an unlabelled collector row's key is its name,
        so a frame renders no key.  A collector counter on a registry
        counter's key adds to it; a collector gauge on a registry gauge's
        key replaces it.  Histogram entries carry
        ``count/sum/min/max/bounds/buckets`` with lists copied, so they
        never alias the live instrument.
        """
        counters: Dict[str, float] = {}
        for key, instrument in self._counter_keys:
            counters[key] = counters.get(key, 0.0) + float(instrument.value)
        gauges = {key: float(instrument.value)
                  for key, instrument in self._gauge_keys}
        keys = self._series_keys
        for name, labels, kind, value in self._collector_rows():
            if labels:
                key = keys.get((name, labels)) or self._render((name, labels))
            else:
                key = name
            if kind == "counter":
                counters[key] = counters.get(key, 0.0) + float(value)
            else:
                gauges[key] = float(value)
        histograms = {
            key: {"count": h.count, "sum": float(h.total),
                  "min": float(h.min or 0.0), "max": float(h.max or 0.0),
                  "bounds": list(h.bounds), "buckets": list(h.bucket_counts)}
            for key, h in self._histogram_keys}
        return counters, gauges, histograms

    def _render(self, series: Tuple[str, LabelPairs]) -> str:
        key = self._series_keys.get(series)
        if key is None:
            name, labels = series
            key = self._series_keys[series] = series_key(name, dict(labels))
        return key

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every series (the JSON export)."""
        counters = []
        for (name, labels), c in sorted(self._counters.items()):
            counters.append({"name": name, "labels": dict(labels),
                             "value": c.value})
        gauges = []
        for (name, labels), g in sorted(self._gauges.items()):
            gauges.append({"name": name, "labels": dict(labels),
                           "value": g.value})
        for s in sorted(self._collected(),
                        key=lambda s: (s.name, s.labels)):
            row = {"name": s.name, "labels": dict(s.labels),
                   "value": s.value}
            (counters if s.kind == "counter" else gauges).append(row)
        histograms = []
        for (name, labels), h in sorted(self._histograms.items()):
            histograms.append({"name": name, "labels": dict(labels),
                               **h.summary(),
                               "sum": h.total,
                               "bounds": list(h.bounds),
                               "buckets": list(h.bucket_counts)})
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=False)

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (0.0.4)."""
        lines: List[str] = []
        seen_types: Dict[str, str] = {}

        def typed(name: str, kind: str) -> None:
            if seen_types.get(name) != kind:
                lines.append(f"# TYPE {name} {kind}")
                seen_types[name] = kind

        for (name, labels), c in sorted(self._counters.items()):
            typed(name, "counter")
            lines.append(f"{name}{_label_str(labels)} {c.value}")
        for (name, labels), g in sorted(self._gauges.items()):
            typed(name, "gauge")
            lines.append(f"{name}{_label_str(labels)} {g.value:g}")
        for s in sorted(self._collected(),
                        key=lambda s: (s.name, s.labels)):
            typed(s.name, s.kind)
            lines.append(f"{s.name}{_label_str(s.labels)} {s.value:g}")
        for (name, labels), h in sorted(self._histograms.items()):
            typed(name, "histogram")

            def bucket_line(le_value: str, cumulative: int,
                            idx: int) -> str:
                le = dict(labels)
                le["le"] = le_value
                line = (f"{name}_bucket{_label_str(_label_key(le))} "
                        f"{cumulative}")
                exemplar = h.exemplars.get(idx)
                if exemplar is not None:
                    trace_id, value = exemplar
                    line += (f' # {{trace_id="'
                             f'{_escape_label_value(trace_id)}"}} '
                             f"{value:g}")
                return line

            cumulative = 0
            for idx, (bound, n) in enumerate(zip(h.bounds,
                                                 h.bucket_counts)):
                cumulative += n
                lines.append(bucket_line(f"{bound:g}", cumulative, idx))
            # The +Inf bucket is mandatory even for an empty histogram.
            lines.append(bucket_line("+Inf", h.count, len(h.bounds)))
            lines.append(f"{name}_sum{_label_str(labels)} {h.total:g}")
            lines.append(f"{name}_count{_label_str(labels)} {h.count}")
        return "\n".join(lines) + ("\n" if lines else "")
