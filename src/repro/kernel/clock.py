"""Virtual time for the simulated kernel.

All *functional* behaviour in the simulator (timestamps, transition
frequencies, SDS polling periods) uses a :class:`VirtualClock` so runs are
deterministic.  Benchmarks measure real elapsed time separately with
``time.perf_counter_ns``; the virtual clock never feeds benchmark numbers.
Its one-shot timers fire from the clock, as Linux hrtimers do: an advance
runs every timer it crosses, in deadline order, with the clock reading
that timer's deadline.  Callbacks must be bound methods, not closures:
``copy.deepcopy`` rebinds a bound method to the copy, not a closure.
"""

from __future__ import annotations

import heapq
from typing import Callable, List

NSEC_PER_USEC = 1_000
NSEC_PER_MSEC = 1_000_000
NSEC_PER_SEC = 1_000_000_000


class VirtualClock:
    """Monotonic, manually-advanced nanosecond clock with one-shot timers."""

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise ValueError("clock cannot start before zero")
        self._now_ns = start_ns
        #: Heap of ``[when_ns, seq, callback or None once cancelled]``.
        self._timers: List[list] = []
        self._timer_seq = 0

    @property
    def now_ns(self) -> int:
        """Current virtual time in nanoseconds."""
        return self._now_ns

    @property
    def now_us(self) -> float:
        return self._now_ns / NSEC_PER_USEC

    @property
    def now_ms(self) -> float:
        return self._now_ns / NSEC_PER_MSEC

    @property
    def now_s(self) -> float:
        return self._now_ns / NSEC_PER_SEC

    def call_at(self, when_ns: int, callback: Callable[[], None]) -> list:
        """Arm *callback* to run once at *when_ns*; returns the handle
        :meth:`cancel` takes.  Timers armed by a callback may fire in
        the same advance."""
        if when_ns < self._now_ns:
            raise ValueError("timer deadline is in the past")
        self._timer_seq += 1
        timer = [when_ns, self._timer_seq, callback]
        heapq.heappush(self._timers, timer)
        return timer

    def cancel(self, timer: list) -> None:
        """Disarm *timer*; a no-op once it has fired or been cancelled."""
        timer[2] = None

    def advance_ns(self, delta_ns: int) -> int:
        """Move time forward *delta_ns*, firing due timers; returns it."""
        if delta_ns < 0:
            raise ValueError("time cannot move backwards")
        target = self._now_ns + delta_ns
        timers = self._timers
        while timers and timers[0][0] <= target:
            timer = heapq.heappop(timers)
            callback, timer[2] = timer[2], None
            if callback is not None:
                self._now_ns = timer[0]
                callback()
        self._now_ns = target
        return target

    def advance_us(self, delta_us: float) -> int:
        return self.advance_ns(int(delta_us * NSEC_PER_USEC))

    def advance_ms(self, delta_ms: float) -> int:
        return self.advance_ns(int(delta_ms * NSEC_PER_MSEC))

    def advance_s(self, delta_s: float) -> int:
        return self.advance_ns(int(delta_s * NSEC_PER_SEC))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(now_ns={self._now_ns})"
