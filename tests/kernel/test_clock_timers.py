"""One-shot timers on the virtual clock: they fire from ``advance_ns``."""

import copy

import pytest

from repro.kernel.clock import NSEC_PER_MSEC, VirtualClock


class Recorder:
    def __init__(self, clock, name, log):
        self.clock, self.name, self.log = clock, name, log

    def fire(self):
        self.log.append((self.name, self.clock.now_ns))


def test_timers_fire_in_deadline_order_at_their_deadlines():
    clock, log = VirtualClock(), []
    for name, when in (("c", 30), ("a", 10), ("b", 20), ("a2", 10)):
        clock.call_at(when, Recorder(clock, name, log).fire)
    assert clock.advance_ns(25) == 25
    # Equal deadlines fire in arming order; the clock reads each one.
    assert log == [("a", 10), ("a2", 10), ("b", 20)]
    assert clock.now_ns == 25
    clock.advance_ns(5)
    assert log[-1] == ("c", 30)


def test_timer_not_due_does_not_fire():
    clock, log = VirtualClock(), []
    clock.call_at(100, Recorder(clock, "t", log).fire)
    clock.advance_ns(99)
    assert log == []
    clock.advance_ns(1)
    assert log == [("t", 100)]


def test_cancel_disarms_and_is_idempotent():
    clock, log = VirtualClock(), []
    keep = clock.call_at(10, Recorder(clock, "keep", log).fire)
    drop = clock.call_at(5, Recorder(clock, "drop", log).fire)
    clock.cancel(drop)
    clock.cancel(drop)
    clock.advance_ns(20)
    assert log == [("keep", 10)]
    clock.cancel(keep)            # already fired: nothing to do
    clock.advance_ns(20)
    assert log == [("keep", 10)]


def test_timer_armed_by_a_callback_fires_in_the_same_advance():
    clock, log = VirtualClock(), []

    class Chain:
        def fire(self):
            log.append(("first", clock.now_ns))
            clock.call_at(clock.now_ns + 5, self.again)
            clock.call_at(clock.now_ns + 500, self.again)

        def again(self):
            log.append(("again", clock.now_ns))

    clock.call_at(10, Chain().fire)
    clock.advance_ms(0.0001)      # 100 ns
    assert log == [("first", 10), ("again", 15)]
    assert clock.now_ns == 100
    clock.advance_ns(410)
    assert log[-1] == ("again", 510)


def test_deadline_at_now_fires_on_next_advance_and_past_is_refused():
    clock, log = VirtualClock(start_ns=50), []
    clock.call_at(50, Recorder(clock, "now", log).fire)
    with pytest.raises(ValueError):
        clock.call_at(49, Recorder(clock, "past", log).fire)
    clock.advance_ns(0)
    assert log == [("now", 50)]


def test_deepcopy_rebinds_bound_method_timers():
    clock, log = VirtualClock(), []
    recorder = Recorder(clock, "orig", log)
    clock.call_at(NSEC_PER_MSEC, recorder.fire)
    twin_clock, twin = copy.deepcopy((clock, recorder))
    twin.log = []
    twin.name = "copy"
    twin_clock.advance_ms(1)
    assert twin.log == [("copy", NSEC_PER_MSEC)]
    assert log == []              # the original timer is still pending
    clock.advance_ms(1)
    assert log == [("orig", NSEC_PER_MSEC)]
