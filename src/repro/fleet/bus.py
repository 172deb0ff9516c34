"""The V2X event bus: situation events between vehicles.

Vehicles publish situation events (``crash``, ``emergency_brake``); the
bus delivers each message to every *other* vehicle that subscribes to the
topic and sits within radio range of the sender's position at publish
time.  Delivery is not instantaneous or reliable: each copy gets a
deterministic seeded latency, and the fleet's fault plan can drop whole
publishes (:data:`~repro.faults.points.V2X_PUBLISH_DROP`), individual
copies (:data:`~repro.faults.points.V2X_DELIVERY_DROP`), or hold copies
for an extra delay (:data:`~repro.faults.points.V2X_DELAY`).

Everything runs on the fleet's virtual clock and seeded RNGs derived from
``(seed, msg_id, subscriber)`` — never from wall time or dict order — so
a seeded run delivers bit-identical messages at bit-identical times.
"""

from __future__ import annotations

import dataclasses
import random
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..faults import points as fault_points

#: Mixer for per-(message, subscriber) latency RNGs; domain-separates the
#: bus's draws from the fault plan's for the same fleet seed.
_BUS_SALT = 0xB05


@dataclasses.dataclass(frozen=True)
class V2xMessage:
    """One published situation event."""

    msg_id: int
    topic: str                  # e.g. "crash", "emergency_brake"
    origin: str                 # publishing vehicle id
    position_km: float          # sender position at publish time
    sent_ns: int                # fleet virtual clock
    payload: Dict[str, str] = dataclasses.field(default_factory=dict)

    def describe(self) -> str:
        return (f"#{self.msg_id} {self.topic} from {self.origin} "
                f"@{self.position_km:.3f}km t={self.sent_ns}ns")


@dataclasses.dataclass(frozen=True)
class BusRecord:
    """One bus decision, kept in the tail ring for ``sackctl fleet bus``."""

    when_ns: int
    action: str                 # published | delivered | dropped | filtered
    message: V2xMessage
    subscriber: str = ""        # empty for publish-side records
    detail: str = ""

    def to_line(self) -> str:
        sub = f" -> {self.subscriber}" if self.subscriber else ""
        det = f" ({self.detail})" if self.detail else ""
        return f"[{self.when_ns:>12d}] {self.action:<9}{sub} " \
               f"{self.message.describe()}{det}"


@dataclasses.dataclass(frozen=True)
class _PendingDelivery:
    due_ns: int
    subscriber: str
    message: V2xMessage


class V2xBus:
    """Topic- and geo-filtered pub/sub over the fleet virtual clock."""

    def __init__(self, seed: int = 0, range_km: float = 0.5,
                 latency_bounds_ms: Tuple[float, float] = (20.0, 80.0),
                 extra_delay_ms: float = 250.0,
                 fault_plan=None, tail_capacity: int = 512,
                 offline_queue_limit: int = 64):
        if range_km <= 0:
            raise ValueError(f"range_km must be positive: {range_km}")
        if offline_queue_limit < 1:
            raise ValueError(f"offline_queue_limit must be >= 1: "
                             f"{offline_queue_limit}")
        lo, hi = latency_bounds_ms
        if lo < 0 or hi < lo:
            raise ValueError(f"bad latency bounds {latency_bounds_ms}")
        self.seed = seed
        self.range_km = range_km
        self.latency_bounds_ms = (lo, hi)
        self.extra_delay_ms = extra_delay_ms
        self.offline_queue_limit = offline_queue_limit
        self.fault_plan = fault_plan
        #: topic -> ordered list of subscriber vehicle ids.
        self._subscribers: Dict[str, List[str]] = {}
        self._pending: List[_PendingDelivery] = []
        self._msg_ids = 0
        #: The last bus decisions as ``BusRecord`` field tuples; most are
        #: "filtered" copies, so :meth:`tail` builds records only on read.
        self._tail: Deque[tuple] = deque(maxlen=tail_capacity)
        self.stats: Dict[str, int] = {
            "published": 0,
            "publish_dropped": 0,
            "copies_enqueued": 0,
            "copies_delivered": 0,
            "copies_dropped": 0,
            "copies_filtered_range": 0,
            "copies_delayed": 0,
        }

    # -- membership --------------------------------------------------------
    def subscribe(self, vehicle_id: str, topics) -> None:
        for topic in topics:
            subs = self._subscribers.setdefault(topic, [])
            if vehicle_id not in subs:
                subs.append(vehicle_id)

    # -- publish -----------------------------------------------------------
    def publish(self, topic: str, origin: str, position_km: float,
                now_ns: int, payload: Optional[Dict[str, str]] = None,
                positions: Optional[Dict[str, float]] = None) -> Optional[V2xMessage]:
        """Publish one event; fans copies out to in-range subscribers.

        *positions* maps subscriber id → position (km) at publish time;
        geo filtering happens here, at send time, as a real DSRC/C-V2X
        radio's reach would.  Returns the message, or ``None`` when the
        publish itself was dropped.
        """
        self._msg_ids += 1
        message = V2xMessage(msg_id=self._msg_ids, topic=topic,
                             origin=origin, position_km=position_km,
                             sent_ns=now_ns, payload=dict(payload or {}))
        self.stats["published"] += 1
        plan = self.fault_plan
        if plan is not None and plan.should_fail(
                fault_points.V2X_PUBLISH_DROP, now_ns, arg=origin):
            self.stats["publish_dropped"] += 1
            self._record(now_ns, "dropped", message,
                         detail="publish lost (radio shadow)")
            return None
        self._record(now_ns, "published", message)
        positions = positions or {}
        for subscriber in self._subscribers.get(topic, ()):
            if subscriber == origin:
                continue
            sub_pos = positions.get(subscriber)
            if sub_pos is None or abs(sub_pos - position_km) > self.range_km:
                self.stats["copies_filtered_range"] += 1
                self._record(now_ns, "filtered", message, subscriber,
                             detail="out of radio range")
                continue
            self._enqueue_copy(message, subscriber, now_ns)
        return message

    def _enqueue_copy(self, message: V2xMessage, subscriber: str,
                      now_ns: int) -> None:
        plan = self.fault_plan
        if plan is not None and plan.should_fail(
                fault_points.V2X_DELIVERY_DROP, now_ns, arg=subscriber):
            self.stats["copies_dropped"] += 1
            self._record(now_ns, "dropped", message, subscriber,
                         detail="copy lost in flight")
            return
        latency_ns = self._latency_ns(message.msg_id, subscriber)
        detail = ""
        if plan is not None and plan.should_fail(
                fault_points.V2X_DELAY, now_ns, arg=subscriber):
            latency_ns += int(self.extra_delay_ms * 1e6)
            self.stats["copies_delayed"] += 1
            detail = "congestion delay"
        self.stats["copies_enqueued"] += 1
        self._pending.append(_PendingDelivery(
            due_ns=now_ns + latency_ns, subscriber=subscriber,
            message=message))
        if detail:
            self._record(now_ns, "delayed", message, subscriber,
                         detail=detail)

    def _latency_ns(self, msg_id: int, subscriber: str) -> int:
        """Deterministic per-copy latency: seeded by (fleet, msg, sub)."""
        mix = (self.seed * 1_000_003) ^ (msg_id << 20) ^ _BUS_SALT
        for ch in subscriber:
            mix = (mix * 131) ^ ord(ch)
        rng = random.Random(mix & 0xFFFFFFFFFFFF)
        lo, hi = self.latency_bounds_ms
        return int(rng.uniform(lo, hi) * 1e6)

    # -- delivery ----------------------------------------------------------
    def deliver_due(self, now_ns: int,
                    online: Optional[Dict[str, bool]] = None
                    ) -> Dict[str, List[V2xMessage]]:
        """Pop every copy due by *now_ns*; returns subscriber → messages.

        Copies addressed to offline vehicles stay queued (the radio keeps
        retrying) — they arrive once the vehicle is back, which is what
        lets a reconnecting vehicle catch up instead of silently missing
        the platoon's situation history.  The store-and-forward buffer is
        finite though: at most ``offline_queue_limit`` overdue copies per
        subscriber are held; beyond that the oldest fall off first and
        are counted under ``v2x_offline_dropped``.
        """
        due: Dict[str, List[V2xMessage]] = {}
        still_pending: List[_PendingDelivery] = []
        held: Dict[str, List[_PendingDelivery]] = {}
        for entry in self._pending:
            if entry.due_ns > now_ns:
                still_pending.append(entry)
                continue
            if online is not None and not online.get(entry.subscriber, True):
                held.setdefault(entry.subscriber, []).append(entry)
                continue
            due.setdefault(entry.subscriber, []).append(entry.message)
            self.stats["copies_delivered"] += 1
            self._record(now_ns, "delivered", entry.message,
                         entry.subscriber)
        for subscriber in sorted(held):
            # Oldest = earliest published (msg ids are monotonic), not
            # earliest due — latency jitter must not pick the victims.
            backlog = sorted(held[subscriber],
                             key=lambda e: e.message.msg_id)
            overflow = len(backlog) - self.offline_queue_limit
            if overflow > 0:
                for entry in backlog[:overflow]:
                    # Keyed lazily so an untouched run's stats dict (and
                    # with it the fleet fingerprint) stays byte-for-byte
                    # what it was before the bound existed.
                    self.stats["v2x_offline_dropped"] = \
                        self.stats.get("v2x_offline_dropped", 0) + 1
                    self._record(now_ns, "dropped", entry.message,
                                 entry.subscriber,
                                 detail="offline queue overflow")
                backlog = backlog[overflow:]
            still_pending.extend(backlog)
        self._pending = still_pending
        # Deterministic arrival order: by (msg id) within a subscriber,
        # independent of queue insertion interleavings.
        for messages in due.values():
            messages.sort(key=lambda m: m.msg_id)
        return dict(sorted(due.items()))

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    # -- observability -----------------------------------------------------
    def _record(self, now_ns: int, action: str, message: V2xMessage,
                subscriber: str = "", detail: str = "") -> None:
        self._tail.append((now_ns, action, message, subscriber, detail))

    def tail(self, n: int = 50) -> List[BusRecord]:
        """The last *n* bus decisions (publish/deliver/drop/filter)."""
        return [BusRecord(*fields) for fields in list(self._tail)[-n:]]

    def stats_dict(self) -> Dict[str, int]:
        return dict(self.stats, pending=len(self._pending))
