"""A minimal, deterministic discrete-event simulator.

Events are ``(time, sequence, callable, args)`` tuples in a binary heap;
the sequence number breaks ties so simultaneous events run in scheduling
order, keeping every run bit-reproducible.

The simulator is also the root of the observability tree: pass a
:class:`~repro.telemetry.Telemetry` instance and every layer built on top
(network, switches, controller, runtime stacks) discovers it through
``sim.telemetry``.  The tracer's clock is bound to the virtual clock, so
trace events are stamped with deterministic simulated time.
"""

from __future__ import annotations

import itertools
import time
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.telemetry import NULL_TELEMETRY, Telemetry


class EventHandle:
    """A cancellable scheduled event (from :meth:`EventSimulator.schedule_cancellable`).

    Cancellation is lazy: the heap entry stays queued and is discarded
    when its time comes, which keeps the heap discipline (and therefore
    determinism) untouched.  Fault injectors and retry timers use this to
    withdraw restarts/timeouts that completion made moot.
    """

    __slots__ = ("_sim", "_fn", "_args", "cancelled", "fired")

    def __init__(self, sim: "EventSimulator", fn: Callable, args: tuple):
        self._sim = sim
        self._fn = fn
        self._args = args
        self.cancelled = False
        self.fired = False

    def cancel(self) -> None:
        """Prevent the event from running (no-op if it already ran)."""
        if not self.fired:
            self.cancelled = True

    def _fire(self) -> None:
        self.fired = True
        if self.cancelled:
            self._sim.events_cancelled += 1
            return
        self._fn(*self._args)


class EventSimulator:
    """Heap-based event loop with virtual time in seconds."""

    def __init__(self, telemetry: Optional[Telemetry] = None):
        self._queue: List[Tuple[float, int, Callable, tuple]] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self.events_executed = 0
        #: Cancelled events that reached their fire time and were discarded.
        self.events_cancelled = 0
        #: Events that were still eligible to run when an event budget
        #: (``max_events``) was exhausted.  They stay queued — this counts
        #: budget starvation, not loss — but before this counter existed
        #: such stalls were invisible.  Each event is counted at most once
        #: across repeated exhausted ``run()`` calls (see ``_deferred_seen``).
        self.events_dropped = 0
        # Sequence numbers of queued events already tallied in
        # ``events_dropped``; without this, every budget-exhausted run()
        # would re-count the same still-queued events and inflate the
        # starvation counter.  Entries are discarded as events execute.
        self._deferred_seen: set = set()
        #: Number of ``run()`` calls that exhausted their event budget
        #: with eligible work remaining.
        self.budget_exhaustions = 0
        #: Deepest the event heap has ever been.
        self.heap_depth_high_water = 0
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.telemetry.bind_clock(lambda: self._now)
        metrics = self.telemetry.metrics
        self._executed_total = metrics.bind_counter(
            "sim_events_executed_total")
        self._wall_total = metrics.bind_counter("sim_wall_seconds_total")
        self._virtual_seconds = metrics.bind_gauge("sim_virtual_seconds")
        self._heap_high_water = metrics.bind_gauge("sim_heap_depth_high_water")
        self._pending_gauge = metrics.bind_gauge("sim_events_pending")
        self._deferred_total = metrics.bind_counter(
            "sim_events_deferred_total")
        self._exhausted_total = metrics.bind_counter(
            "sim_budget_exhausted_total")

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` after ``delay`` seconds of virtual time."""
        # ``not >=`` rather than ``<``: NaN fails every comparison, and a
        # NaN key would leave the heap unordered.
        if not delay >= 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        queue = self._queue
        heappush(queue, (self._now + delay, next(self._sequence), fn, args))
        if len(queue) > self.heap_depth_high_water:
            self.heap_depth_high_water = len(queue)

    def schedule_cancellable(self, delay: float, fn: Callable,
                             *args) -> EventHandle:
        """Like :meth:`schedule`, but returns a cancellable handle."""
        handle = EventHandle(self, fn, args)
        self.schedule(delay, handle._fire)
        return handle

    def schedule_at(self, at: float, fn: Callable, *args) -> None:
        """Run ``fn(*args)`` at absolute virtual time ``at``."""
        if not at >= self._now:
            raise ValueError(f"cannot schedule into the past (at={at}, now={self._now})")
        queue = self._queue
        heappush(queue, (at, next(self._sequence), fn, args))
        if len(queue) > self.heap_depth_high_water:
            self.heap_depth_high_water = len(queue)

    def run(self, until: Optional[float] = None, max_events: int = 10_000_000) -> int:
        """Drain events (optionally only up to time ``until``).

        Returns the number of events executed.  ``max_events`` guards
        against runaway event storms (e.g., an unmitigated DoS scenario).
        If the budget runs out with eligible events still queued, the
        clock stays at the last executed event (it does *not* jump to
        ``until``, since work remains inside the window) and the deferred
        events are tallied in :attr:`events_dropped`.
        """
        wall_start = time.perf_counter()
        executed = 0
        queue = self._queue
        deferred_seen = self._deferred_seen
        # until=None drains everything: no event is later than +inf.
        horizon = float("inf") if until is None else until
        while queue and executed < max_events:
            if queue[0][0] > horizon:
                break
            at, seq, fn, args = heappop(queue)
            if deferred_seen:
                deferred_seen.discard(seq)
            self._now = at
            fn(*args)
            executed += 1
        budget_exhausted = (
            executed >= max_events and bool(self._queue)
            and (until is None or self._queue[0][0] <= until)
        )
        if budget_exhausted:
            fresh = [event[1] for event in self._queue
                     if (until is None or event[0] <= until)
                     and event[1] not in self._deferred_seen]
            deferred = len(fresh)
            self._deferred_seen.update(fresh)
            self.events_dropped += deferred
            self.budget_exhaustions += 1
        elif until is not None:
            self._now = max(self._now, until)
        self.events_executed += executed
        self._executed_total.inc(executed)
        self._wall_total.inc(time.perf_counter() - wall_start)
        self._virtual_seconds.set(self._now)
        self._heap_high_water.set_max(self.heap_depth_high_water)
        self._pending_gauge.set(len(self._queue))
        if budget_exhausted:
            self._deferred_total.inc(deferred)
            self._exhausted_total.inc()
            self.telemetry.tracer.emit("sim.budget_exhausted",
                                       deferred=deferred, executed=executed)
        return executed

    def pending(self) -> int:
        """Number of events still queued."""
        return len(self._queue)
