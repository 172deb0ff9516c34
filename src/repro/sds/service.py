"""The Situation Detection Service (SDS) — paper §III-B, user space.

The SDS is a privileged user-space daemon: it samples sensors, runs the
detectors, and forwards detected situation events to the kernel by writing
lines to SACKfs (``/sys/kernel/security/SACK/events``).  It is the *only*
component that bridges situation tracking (user space) and enforcement
(kernel) — the decoupling the paper credits for consistency and POLP.

Resilience (see ``docs/fault-injection.md``): failed sends land in a
bounded, coalescing outbox retried with exponential backoff on the virtual
clock; sensors carry per-sensor health with last-known-good fallback; and
a periodic ``sds_heartbeat`` keeps the kernel's staleness watchdog fed
even when no situation changes.
"""

from __future__ import annotations

import dataclasses
import time
from collections import OrderedDict, deque
from typing import Dict, List, Optional

from ..faults import points as fault_points
from ..kernel.errors import KernelError
from ..obs.spans import TRACEPARENT_KEY
from ..sack.events import HEARTBEAT
from ..sack.sackfs import EVENTS_PATH
from .detectors import Detector, default_detector_suite
from .sensors import Sensor, default_sensor_suite, span_attributes

#: Latency samples kept for percentile inspection; the mean/max are
#: streamed so the window size never biases the summary.
LATENCY_WINDOW = 1024

#: Outbox capacity: distinct coalesced events awaiting retry.
OUTBOX_CAPACITY = 64

#: Retry backoff bounds (virtual-clock milliseconds).
RETRY_BACKOFF_INITIAL_MS = 20.0
RETRY_BACKOFF_MAX_MS = 2000.0


class SdsStats:
    """Operational counters plus the user→kernel latency samples.

    Latency samples are bounded (a long soak must not grow memory), so
    the mean and max are maintained as running aggregates over *all*
    sends, not just the retained window.
    """

    def __init__(self, latency_window: int = LATENCY_WINDOW):
        self.polls = 0
        self.events_sent = 0
        self.events_failed = 0
        self.retries = 0
        self.outbox_dropped = 0
        self.heartbeats_sent = 0
        self.heartbeats_failed = 0
        self.sensor_faults = 0
        self.send_latencies_ns = deque(maxlen=latency_window)
        self._latency_count = 0
        self._latency_total_ns = 0
        self._latency_max_ns = 0

    def record_latency(self, latency_ns: int) -> None:
        self.send_latencies_ns.append(latency_ns)
        self._latency_count += 1
        self._latency_total_ns += latency_ns
        if latency_ns > self._latency_max_ns:
            self._latency_max_ns = latency_ns

    @property
    def mean_latency_us(self) -> float:
        if not self._latency_count:
            return 0.0
        return self._latency_total_ns / self._latency_count / 1e3

    @property
    def max_latency_us(self) -> float:
        return self._latency_max_ns / 1e3

    def summary(self) -> Dict[str, object]:
        return {
            "polls": self.polls,
            "events_sent": self.events_sent,
            "events_failed": self.events_failed,
            "retries": self.retries,
            "outbox_dropped": self.outbox_dropped,
            "heartbeats_sent": self.heartbeats_sent,
            "heartbeats_failed": self.heartbeats_failed,
            "sensor_faults": self.sensor_faults,
            "mean_send_latency_us": round(self.mean_latency_us, 3),
            "max_send_latency_us": round(self.max_latency_us, 3),
        }


@dataclasses.dataclass
class SensorHealth:
    """Per-sensor liveness tracked by the SDS supervisor."""

    ok: bool = True
    consecutive_failures: int = 0
    total_failures: int = 0
    last_good: object = None

    def record_good(self, value: object) -> None:
        self.ok = True
        self.consecutive_failures = 0
        self.last_good = value

    def record_failure(self) -> None:
        self.ok = False
        self.consecutive_failures += 1
        self.total_failures += 1


class SituationDetectionService:
    """Samples, detects, and transmits — one poll per vehicle tick."""

    def __init__(self, kernel, task, dynamics,
                 sensors: Optional[List[Sensor]] = None,
                 detectors: Optional[List[Detector]] = None,
                 events_path: str = EVENTS_PATH,
                 poll_period_ms: float = 10.0,
                 heartbeat_period_ms: float = 1000.0,
                 fault_plan=None):
        self.kernel = kernel
        self.task = task
        self.dynamics = dynamics
        self.sensors = sensors if sensors is not None else default_sensor_suite()
        self.detectors = (detectors if detectors is not None
                          else default_detector_suite())
        self.events_path = events_path
        self.poll_period_ms = poll_period_ms
        self.heartbeat_period_ms = heartbeat_period_ms
        self.fault_plan = fault_plan
        self.stats = SdsStats()
        self.last_samples: Dict[str, object] = {}
        self._health: Dict[str, SensorHealth] = {
            sensor.name: SensorHealth() for sensor in self.sensors}
        #: True while ``_health`` lags ``last_samples``: a sweep without
        #: a fault plan leaves health to be brought up to date on read.
        self._health_stale = False
        #: The last sweep every detector consumed in full, or None when
        #: the detectors must run on the next sweep whatever it reads.  A
        #: detector joins ``detectors`` before the first poll.
        self._prev_sweep: Optional[Dict[str, object]] = None
        #: Coalescing outbox: event name -> (line, traceparent) awaiting
        #: retry.  A newer occurrence of a queued event replaces the stale
        #: payload; the traceparent keeps the retry in the original trace.
        self.outbox: "OrderedDict[str, tuple]" = OrderedDict()
        self.retry_backoff_ms = RETRY_BACKOFF_INITIAL_MS
        self.next_retry_ns: Optional[int] = None
        self._last_heartbeat_ns: Optional[int] = None

    # -- configuration -------------------------------------------------------
    def add_sensor(self, sensor: Sensor) -> None:
        """Append *sensor* to the sweep, healthy until a fault says not."""
        self.sensors.append(sensor)
        self.health[sensor.name] = SensorHealth()

    def resync(self) -> None:
        """Rewind every detector after a policy (re)load.

        See :meth:`Detector.resync`.  The previous sweep is forgotten
        too: the next poll runs the detectors even when the vehicle has
        not moved, so the situation it is in reaches the fresh SSM.
        """
        for detector in self.detectors:
            detector.resync()
        self._prev_sweep = None

    # -- sensing -------------------------------------------------------------
    @property
    def health(self) -> Dict[str, SensorHealth]:
        """Per-sensor health, by sensor name.

        A sweep without a fault plan samples every sensor and every
        sample is good, so it leaves the health records alone: each is
        healthy with its last sample as the last-known-good value, which
        is what reading them here fills in.
        """
        if self._health_stale:
            self._health_stale = False
            for name, value in self.last_samples.items():
                self._health.setdefault(name, SensorHealth()).record_good(
                    value)
        return self._health

    def _sample_sensors(self, now_ns: int) -> Dict[str, object]:
        """One sampling sweep, with faults applied and health tracked.

        Without a fault plan it is one pass over the sensors.  With one,
        a dropped-out sensor contributes its last-known-good value (the
        detectors keep running on slightly stale data rather than on
        holes); a stuck sensor silently repeats its previous value; a
        spiked numeric sensor is scaled by the plan's magnitude.
        """
        plan = self.fault_plan
        if plan is None:
            dynamics = self.dynamics
            samples = {sensor.name: sensor.sample(dynamics)
                       for sensor in self.sensors}
            self._health_stale = True
            return samples
        health_of = self.health
        samples: Dict[str, object] = {}
        for sensor in self.sensors:
            health = health_of.setdefault(sensor.name, SensorHealth())
            if plan.should_fail(fault_points.SDS_SENSOR_DROPOUT, now_ns,
                                arg=sensor.name):
                self.stats.sensor_faults += 1
                health.record_failure()
                if health.last_good is not None:
                    samples[sensor.name] = health.last_good
                continue
            value = sensor.sample(self.dynamics)
            if plan.should_fail(fault_points.SDS_SENSOR_STUCK, now_ns,
                                arg=sensor.name):
                self.stats.sensor_faults += 1
                if health.last_good is not None:
                    value = health.last_good
                samples[sensor.name] = value
                continue
            if (isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and plan.should_fail(fault_points.SDS_SENSOR_SPIKE,
                                         now_ns, arg=sensor.name)):
                self.stats.sensor_faults += 1
                value = plan.spike(value)
            health.record_good(value)
            samples[sensor.name] = value
        return samples

    def _tracer(self):
        """The kernel's span tracer, or None when tracing is off."""
        obs = getattr(self.kernel, "obs", None)
        spans = getattr(obs, "spans", None) if obs is not None else None
        return spans if spans is not None and spans.enabled else None

    def poll(self) -> List[str]:
        """One detection cycle; returns the event names transmitted.

        Detectors are edge-triggered (see :class:`Detector`), so a sweep
        without a fault plan that repeats the previous one exactly skips
        them: they would emit nothing and keep their state.
        """
        self.stats.polls += 1
        now_ns = self.kernel.clock.now_ns
        samples = self._sample_sensors(now_ns)
        self.last_samples = samples
        repeat = self.fault_plan is None and samples == self._prev_sweep
        spans = self._tracer()
        # The trace root: this sensor sweep.  Every event the detectors
        # derive from it — and everything those events cause down in the
        # kernel — hangs off this span.  Sweeps that detect nothing close
        # childless and are discarded by the tracer, so idle polling does
        # not flood the ring.
        root = None
        if spans is not None:
            root = spans.start_span("sensor.sample", stage="detect",
                                    root=True,
                                    attributes=span_attributes(samples))
        sent: List[str] = []
        try:
            if not repeat:
                # A sweep the detectors abandon midway is never a
                # previous sweep: they may have consumed part of it.
                self._prev_sweep = None
                for detector in self.detectors:
                    for event_name in detector.update(samples, now_ns):
                        if self.send_event(event_name, samples):
                            sent.append(event_name)
                self._prev_sweep = samples
        finally:
            if spans is not None:
                spans.end_span(root)
        return sent

    # -- transmission --------------------------------------------------------
    def _write_line(self, line: bytes) -> None:
        self.kernel.write_file(self.task, self.events_path, line,
                               create=False)

    def send_event(self, event_name: str,
                   samples: Optional[Dict[str, object]] = None) -> bool:
        """Write one event line to SACKfs; returns success.

        A failed send is queued in the outbox for backoff-driven retry —
        the event is delayed, not lost (unless the outbox overflows).
        """
        payload = ""
        if samples and "speed_kmh" in samples:
            payload = f" speed={samples['speed_kmh']:.0f}"
        spans = self._tracer()
        span = None
        traceparent = ""
        if spans is not None:
            span = spans.start_span("sds.send", stage="coalesce",
                                    attributes={"event": event_name})
            # Cross the user→kernel boundary explicitly: the context rides
            # the event line itself, so SACKfs resumes this exact trace.
            traceparent = span.context.to_traceparent()
            payload += f" {TRACEPARENT_KEY}={traceparent}"
        line = f"{event_name}{payload}\n".encode()
        start = time.perf_counter_ns()
        try:
            self._write_line(line)
        except KernelError:
            self.stats.events_failed += 1
            self._enqueue(event_name, line, traceparent)
            if spans is not None:
                spans.end_span(span, status="queued")
            return False
        self.stats.record_latency(time.perf_counter_ns() - start)
        self.stats.events_sent += 1
        if spans is not None:
            spans.end_span(span)
        return True

    def _enqueue(self, event_name: str, line: bytes,
                 traceparent: str = "") -> None:
        if event_name in self.outbox:
            # Coalesce: keep queue position, refresh the payload.
            self.outbox[event_name] = (line, traceparent)
            return
        if len(self.outbox) >= OUTBOX_CAPACITY:
            self.outbox.popitem(last=False)
            self.stats.outbox_dropped += 1
        self.outbox[event_name] = (line, traceparent)
        if self.next_retry_ns is None:
            self._schedule_retry()

    def _schedule_retry(self) -> None:
        delay_ns = int(self.retry_backoff_ms * 1e6)
        self.next_retry_ns = self.kernel.clock.now_ns + delay_ns

    def flush_outbox(self, now_ns: Optional[int] = None) -> int:
        """Retry queued events once the backoff deadline has passed.

        Returns the number of events delivered.  On the first failure the
        backoff doubles (capped) and the rest of the queue waits; on full
        drain the backoff resets.
        """
        if not self.outbox:
            self.next_retry_ns = None
            return 0
        now = self.kernel.clock.now_ns if now_ns is None else now_ns
        if self.next_retry_ns is not None and now < self.next_retry_ns:
            return 0
        delivered = 0
        spans = self._tracer()
        while self.outbox:
            event_name, (line, traceparent) = next(iter(self.outbox.items()))
            self.stats.retries += 1
            span = None
            if spans is not None:
                # The retry continues the original trace: its fragment is
                # parented on the queued send's remote context.
                span = spans.start_span("sds.retry", stage="coalesce",
                                        remote=traceparent or None,
                                        attributes={"event": event_name})
            start = time.perf_counter_ns()
            try:
                self._write_line(line)
            except KernelError:
                if spans is not None:
                    spans.end_span(span, status="queued")
                self.retry_backoff_ms = min(self.retry_backoff_ms * 2,
                                            RETRY_BACKOFF_MAX_MS)
                self._schedule_retry()
                return delivered
            if spans is not None:
                spans.end_span(span)
            del self.outbox[event_name]
            self.stats.record_latency(time.perf_counter_ns() - start)
            self.stats.events_sent += 1
            delivered += 1
        self.retry_backoff_ms = RETRY_BACKOFF_INITIAL_MS
        self.next_retry_ns = None
        return delivered

    def send_heartbeat(self) -> bool:
        """Tell the kernel the channel is alive (feeds its watchdog)."""
        self._last_heartbeat_ns = self.kernel.clock.now_ns
        try:
            self._write_line(f"{HEARTBEAT}\n".encode())
        except KernelError:
            self.stats.heartbeats_failed += 1
            return False
        self.stats.heartbeats_sent += 1
        return True

    def _maybe_heartbeat(self, now_ns: int) -> None:
        if self._last_heartbeat_ns is None:
            self.send_heartbeat()
            return
        due_ns = self._last_heartbeat_ns + int(self.heartbeat_period_ms * 1e6)
        if now_ns >= due_ns:
            self.send_heartbeat()

    # -- main loop -----------------------------------------------------------
    def run(self, ticks: int, step_dynamics: bool = True,
            dt_s: Optional[float] = None) -> List[str]:
        """Run *ticks* poll cycles, advancing dynamics and virtual time."""
        dt_s = dt_s if dt_s is not None else self.poll_period_ms / 1e3
        all_events: List[str] = []
        for _ in range(ticks):
            if step_dynamics:
                self.dynamics.step(dt_s)
            self.kernel.clock.advance_ms(self.poll_period_ms)
            all_events.extend(self.poll())
            self.flush_outbox()
            self._maybe_heartbeat(self.kernel.clock.now_ns)
        return all_events
