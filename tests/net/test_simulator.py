"""Event simulator: ordering, time semantics, bounded runs."""

import pytest

from repro.net.simulator import EventSimulator


def test_events_run_in_time_order():
    sim = EventSimulator()
    trace = []
    sim.schedule(0.3, trace.append, "c")
    sim.schedule(0.1, trace.append, "a")
    sim.schedule(0.2, trace.append, "b")
    sim.run()
    assert trace == ["a", "b", "c"]


def test_simultaneous_events_fifo():
    sim = EventSimulator()
    trace = []
    for tag in range(5):
        sim.schedule(1.0, trace.append, tag)
    sim.run()
    assert trace == [0, 1, 2, 3, 4]


def test_now_advances_to_event_time():
    sim = EventSimulator()
    seen = []
    sim.schedule(0.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [0.5]
    assert sim.now == 0.5


def test_run_until_stops_and_advances_clock():
    sim = EventSimulator()
    trace = []
    sim.schedule(1.0, trace.append, "early")
    sim.schedule(3.0, trace.append, "late")
    sim.run(until=2.0)
    assert trace == ["early"]
    assert sim.now == 2.0
    sim.run()
    assert trace == ["early", "late"]


def test_events_scheduled_during_run_execute():
    sim = EventSimulator()
    trace = []

    def chain(depth):
        trace.append(depth)
        if depth < 3:
            sim.schedule(0.1, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert trace == [0, 1, 2, 3]


def test_cannot_schedule_into_past():
    sim = EventSimulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.schedule(-0.1, lambda: None)
    with pytest.raises(ValueError):
        sim.schedule_at(0.5, lambda: None)


def test_cannot_schedule_at_nan():
    # NaN compares false with everything: as a heap key it would make
    # event order depend on insertion history.
    sim = EventSimulator()
    nan = float("nan")
    with pytest.raises(ValueError, match="cannot schedule into the past"):
        sim.schedule(nan, lambda: None)
    with pytest.raises(ValueError, match="cannot schedule into the past"):
        sim.schedule_at(nan, lambda: None)
    with pytest.raises(ValueError, match="cannot schedule into the past"):
        sim.schedule_cancellable(nan, lambda: None)
    assert sim.pending() == 0


def test_max_events_guard():
    sim = EventSimulator()

    def storm():
        sim.schedule(0.0, storm)

    sim.schedule(0.0, storm)
    executed = sim.run(max_events=100)
    assert executed == 100
    assert sim.pending() >= 1


def test_pending_count():
    sim = EventSimulator()
    sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


class TestCancellableEvents:
    def test_cancel_before_fire_suppresses_the_call(self):
        sim = EventSimulator()
        fired = []
        handle = sim.schedule_cancellable(1.0, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled and handle.fired
        assert sim.events_cancelled == 1

    def test_uncancelled_handle_fires_normally(self):
        sim = EventSimulator()
        fired = []
        handle = sim.schedule_cancellable(1.0, fired.append, "x")
        sim.run()
        assert fired == ["x"]
        assert handle.fired and not handle.cancelled
        assert sim.events_cancelled == 0

    def test_cancel_after_fire_is_a_noop(self):
        sim = EventSimulator()
        fired = []
        handle = sim.schedule_cancellable(1.0, fired.append, "x")
        sim.run()
        handle.cancel()
        sim.run()
        assert fired == ["x"]
        assert not handle.cancelled
        assert sim.events_cancelled == 0

    def test_lazy_cancellation_keeps_heap_discipline(self):
        # A cancelled entry still occupies its heap slot and is counted
        # as executed when its time comes (determinism: the event order
        # of every OTHER event is unchanged by the cancellation).
        sim = EventSimulator()
        order = []
        sim.schedule(1.0, order.append, "a")
        handle = sim.schedule_cancellable(2.0, order.append, "b")
        sim.schedule(3.0, order.append, "c")
        handle.cancel()
        executed = sim.run()
        assert order == ["a", "c"]
        assert executed == 3  # the tombstone still passed through the loop
