"""The SSM staleness watchdog: fail-safe when the SDS goes dark.

The SSM only knows what the SDS tells it; if the SDS crashes (or the
SACKfs channel dies), the kernel would otherwise keep enforcing the last
state's permissions forever — stale, and possibly far too permissive for
the situation the vehicle is actually in.  The watchdog closes that hole:
the policy declares ``failsafe <state> after <deadline>ms`` and the kernel
degrades to that state when no event or heartbeat has arrived within the
deadline.

The SDS heartbeat (:data:`~repro.sack.events.HEARTBEAT`) is what lets the
kernel tell "quiet SDS" (world unchanged, heartbeats flowing) from "dead
SDS" (nothing at all): heartbeats feed the watchdog without ever touching
the state machine.
"""

from __future__ import annotations

from typing import Dict

from ..kernel.clock import NSEC_PER_MSEC


class StalenessWatchdog:
    """Deadline supervisor over one SSM's event stream.

    One clock timer at ``last_seen + deadline + 1ns`` engages the
    failsafe once the stream is silent for *more* than the deadline.
    :meth:`feed` only stores the time: a timer that finds the watchdog
    fed re-arms from the last feed, one that finds it stale a deadline on.
    """

    def __init__(self, ssm, deadline_ms: float, clock):
        if deadline_ms <= 0:
            raise ValueError("watchdog deadline must be positive")
        self.ssm = ssm
        self.deadline_ms = float(deadline_ms)
        self.deadline_ns = int(deadline_ms * NSEC_PER_MSEC)
        self.clock = clock
        self.last_seen_ns = clock.now_ns
        self.engagements = 0
        self._arm(self.last_seen_ns)

    # -- feeding -----------------------------------------------------------
    def feed(self, now_ns: int) -> None:
        """Any accepted event write or heartbeat pets the watchdog."""
        self.last_seen_ns = now_ns

    # -- supervision -------------------------------------------------------
    def _arm(self, from_ns: int) -> None:
        self._timer = self.clock.call_at(from_ns + self.deadline_ns + 1,
                                         self._fire)

    def disarm(self) -> None:
        """Stop supervising (the policy that declared the deadline went)."""
        self.clock.cancel(self._timer)

    def _fire(self) -> None:
        now = self.clock.now_ns
        stale_ns = now - self.last_seen_ns
        if stale_ns <= self.deadline_ns:
            self._arm(self.last_seen_ns)
            return
        self._arm(now)
        if not self.ssm.failsafe_engaged:
            self.engagements += 1
            self.ssm.enter_failsafe(
                f"event stream stale for {stale_ns / NSEC_PER_MSEC:.0f}ms "
                f"(deadline {self.deadline_ms:.0f}ms)", now_ns=now)

    def stats(self) -> Dict[str, object]:
        return {
            "deadline_ms": self.deadline_ms,
            "last_event_ns": self.last_seen_ns,
            "stale_ns": max(0, self.clock.now_ns - self.last_seen_ns),
            "engagements": self.engagements,
            "engaged": int(self.ssm.failsafe_engaged),
        }
