"""Batched, pipelined C-DP request issue (the §XI scalability path).

The paper's evaluation drives register operations one at a time: compose,
send, wait a full controller round trip, repeat.  That shape is what
Figs 18/19 measure, but a production controller driving hundreds of
switches cannot afford one RTT of dead air per request.
:class:`BatchController` is a *facade* over any register-access stack
(:class:`~repro.core.controller.P4AuthController`,
:class:`~repro.runtime.plain.PlainController`,
:class:`~repro.runtime.p4runtime.P4RuntimeStack`) that keeps a
configurable window of requests in flight per switch and lets requests
to different switches proceed concurrently.

Crucially the facade changes *scheduling only*: every request still goes
through the wrapped stack's own compose path (``request_many``), so the
per-message wire format, the Eqn 4 digest rule, sequence numbering, and
every verify/replay/DoS invariant are byte-for-byte those of the
underlying stack.  A batched deployment is exactly as authenticated as a
sequential one — it just stops waiting between messages.

Ordering: requests to one switch are issued in submission order (the
window never reorders the FIFO), so the data plane's monotonic
``expected_seq`` replay defense sees in-order sequence numbers as long
as the control channel itself is FIFO.  Requests to different switches
share no ordering constraint — that independence is where the throughput
comes from.

Lossy channels: the facade frees a window slot only when the wrapped
stack decides an outcome.  Stacks in fire-and-wait mode (no
``request_timeout_s``) never decide one for a lost message, so enable
bounded retries on the stack when batching over a lossy channel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.requests import REQUEST_KINDS, sample_window
from repro.telemetry import RCT_BUCKETS

ResponseCallback = Callable[[bool, int], None]

#: Buckets for the per-pump burst-size histogram (requests per refill).
BURST_BUCKETS: Tuple[float, ...] = (1, 2, 4, 8, 16, 32, 64, 128)


@dataclass
class BatchSample:
    """One completed request, as observed by the facade."""

    kind: str  # "read" | "write"
    switch: str
    #: Submission -> completion (what a caller experiences, queueing
    #: included).
    rct_s: float
    #: Time spent queued in the facade before the stack saw the request.
    queued_s: float
    ok: bool


@dataclass
class BatchStats:
    submitted: int = 0
    issued: int = 0
    completed: int = 0
    failed: int = 0
    #: Completion callbacks that raised (isolated; window drain continues).
    callback_errors: int = 0
    #: Largest total in-flight population ever observed.
    in_flight_high_water: int = 0
    samples: Deque[BatchSample] = field(default_factory=sample_window)


@dataclass
class _QueuedRequest:
    kind: str
    switch: str
    reg_name: str
    index: int
    value: int
    callback: Optional[ResponseCallback]
    submitted_at: float
    issued_at: float = 0.0


class BatchController:
    """Windowed pipelining facade over a register-access stack.

    Parameters
    ----------
    stack:
        Any object exposing ``request_many(switch, ops)`` with
        completion callbacks and ``sim``/``network`` attributes (all
        three runtime stacks qualify).
    max_in_flight:
        Per-switch window: at most this many requests are outstanding
        toward one switch at a time.  1 degenerates to the sequential
        behavior of :func:`repro.runtime.harness.run_sequential`.
    """

    def __init__(self, stack, max_in_flight: int = 16):
        if max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        self.stack = stack
        self.sim = stack.sim
        self.max_in_flight = max_in_flight
        self.stats = BatchStats()
        #: Optional observer of per-switch window transitions:
        #: ``window_listener("open", switch, (reg_name, index))`` fires
        #: on the idle→busy edge *before* the burst reaches the stack
        #: (write-ahead), with the head op identifying the window;
        #: ``window_listener("close", switch, None)`` fires on busy→idle.
        #: The durability layer journals these as batch_open/batch_close
        #: so recovery knows which switches had requests in flight.
        self.window_listener: Optional[
            Callable[[str, str, Optional[Tuple[str, int]]], None]] = None
        self._queues: Dict[str, Deque[_QueuedRequest]] = {}
        self._in_flight: Dict[str, int] = {}
        self._in_flight_total = 0
        self.telemetry = stack.network.telemetry
        metrics = self.telemetry.metrics
        self._gauge_in_flight = metrics.gauge("batch_in_flight_requests")
        self._gauge_queued = metrics.gauge("batch_queued_requests")
        self._hist_burst = metrics.histogram("batch_burst_size",
                                             buckets=BURST_BUCKETS)
        self._hist_rct = metrics.histogram("batch_rct_seconds",
                                           buckets=RCT_BUCKETS)
        self._counter_submitted = metrics.counter("batch_requests_total")
        self._counter_callback_errors = metrics.bind_counter(
            "batch_callback_errors_total")

    # ------------------------------------------------------------------
    # submission API (stack-compatible signatures)
    # ------------------------------------------------------------------

    def read_register(self, switch: str, reg_name: str, index: int,
                      callback: Optional[ResponseCallback] = None) -> None:
        """Queue an authenticated read; issued as the window allows."""
        self.submit_many([("read", switch, reg_name, index, 0, callback)])

    def write_register(self, switch: str, reg_name: str, index: int,
                       value: int,
                       callback: Optional[ResponseCallback] = None) -> None:
        """Queue an authenticated write; issued as the window allows."""
        self.submit_many([("write", switch, reg_name, index, value,
                           callback)])

    def submit_many(self, ops: Sequence[Tuple]) -> None:
        """Queue a batch of requests, then fill each window once.

        ``ops`` is a sequence of ``(kind, switch, reg_name, index,
        value, callback)`` tuples (``value`` ignored for reads).
        Equivalent to calling :meth:`read_register` /
        :meth:`write_register` per op — same FIFO order, same wire
        bytes — but the pump runs once per switch *after* everything is
        queued, so a whole window's worth of requests issues as one
        burst.  Burst issue is what lets the P4Auth controller sign the
        burst in a single
        :meth:`~repro.core.digest.DigestEngine.sign_many` call (the
        vectorized digest lane from two requests up).

        All or nothing: an unknown ``kind`` raises before any op is
        queued.  A burst the stack refuses (see :meth:`_pump`) fails
        its own requests and nothing else; the first refusal is
        re-raised once every touched switch has been pumped.
        """
        for op in ops:
            if op[0] not in REQUEST_KINDS:
                raise ValueError(f"unknown request kind {op[0]!r}")
        now = self.sim.now
        touched: Dict[str, None] = {}
        for kind, switch, reg_name, index, value, callback in ops:
            self.stats.submitted += 1
            self._counter_submitted.inc()
            self._queues.setdefault(switch, deque()).append(
                _QueuedRequest(kind, switch, reg_name, index, value,
                               callback, now))
            touched[switch] = None
        refused = None
        for switch in touched:
            try:
                self._pump(switch)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                refused = refused or exc
        if refused is not None:
            raise refused

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def in_flight(self, switch: Optional[str] = None) -> int:
        if switch is not None:
            return self._in_flight.get(switch, 0)
        return self._in_flight_total

    def queued(self) -> int:
        return sum(len(queue) for queue in self._queues.values())

    @property
    def idle(self) -> bool:
        """True when nothing is queued or in flight."""
        return self._in_flight_total == 0 and self.queued() == 0

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _pump(self, switch: str) -> None:
        """Refill the switch's window from its FIFO queue.

        A refused burst gave its slots back, so the next one takes the
        window; the first refusal is re-raised when the window is full
        or the queue empty — a bad op never strands what is behind it.
        """
        queue = self._queues.get(switch)
        refused = None
        while queue:
            room = self.max_in_flight - self._in_flight.get(switch, 0)
            burst = [queue.popleft() for _ in range(min(room, len(queue)))]
            if not burst:
                break
            try:
                self._issue_burst(switch, burst)
            except Exception as exc:  # noqa: BLE001 - re-raised below
                refused = refused or exc
            self._hist_burst.observe(len(burst))
            self._gauge_in_flight.set(self._in_flight_total)
            if self.telemetry.enabled:  # spares the untraced queue walk
                self._gauge_queued.set(self.queued())
        if refused is not None:
            raise refused

    def _issue_burst(self, switch: str,
                     burst: List[_QueuedRequest]) -> None:
        """Hand a FIFO burst to the stack, window accounting first.

        Every refill — one request or a window's worth — goes through
        the stack's ``request_many``, which the P4Auth controller uses
        to sign all Eqn 4 digests of the burst together.  The wire
        stream is byte-identical to per-request issue: composition
        order, sequence numbers, and departure times are those of
        back-to-back ``read_register``/``write_register`` calls.

        A stack that raises out of ``request_many`` dispatched nothing
        of the burst (the contract of all three stacks): its window
        slots are released and each of its requests completes once
        with ``(False, 0)`` before the exception goes on.
        """
        now = self.sim.now
        if self.window_listener is not None \
                and self._in_flight.get(switch, 0) == 0:
            self.window_listener("open", switch,
                                 (burst[0].reg_name, burst[0].index))
        for request in burst:
            self._in_flight[switch] = self._in_flight.get(switch, 0) + 1
            self._in_flight_total += 1
            if self._in_flight_total > self.stats.in_flight_high_water:
                self.stats.in_flight_high_water = self._in_flight_total
            self.stats.issued += 1
            request.issued_at = now
        try:
            self.stack.request_many(switch, [
                (request.kind, request.reg_name, request.index,
                 request.value,
                 lambda ok, value, request=request:
                     self._on_complete(request, ok, value))
                for request in burst])
        except Exception:
            for request in burst:
                self._settle(request, False, 0)
            raise

    def _on_complete(self, request: _QueuedRequest, ok: bool,
                     value: int) -> None:
        self._settle(request, ok, value)
        self._pump(request.switch)

    def _settle(self, request: _QueuedRequest, ok: bool,
                value: int) -> None:
        """Give the request's slot back and report its outcome once."""
        switch = request.switch
        self._in_flight[switch] -= 1
        self._in_flight_total -= 1
        if self.window_listener is not None \
                and self._in_flight[switch] == 0 \
                and not self._queues.get(switch):
            self.window_listener("close", switch, None)
        self.stats.completed += 1
        if not ok:
            self.stats.failed += 1
        now = self.sim.now
        rct = now - request.submitted_at
        self.stats.samples.append(BatchSample(
            request.kind, switch, rct,
            request.issued_at - request.submitted_at, ok,
        ))
        self._hist_rct.observe(rct)
        self._gauge_in_flight.set(self._in_flight_total)
        # User callbacks run outside the window accounting: one raising
        # callback must not leak the exception into the simulator event
        # loop or skip the pump below, which would strand every request
        # still queued behind this switch's window.
        if request.callback is not None:
            try:
                request.callback(ok, value)
            except Exception as exc:  # noqa: BLE001 - user-code boundary
                self.stats.callback_errors += 1
                self._counter_callback_errors.inc()
                self.telemetry.tracer.emit(
                    "batch.callback_error", switch=switch,
                    kind=request.kind, error=type(exc).__name__)


__all__ = ["BURST_BUCKETS", "BatchController", "BatchSample", "BatchStats"]
