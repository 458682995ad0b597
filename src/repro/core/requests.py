"""One request lifecycle and one retry policy for every register-access stack.

P4Runtime, DP-Reg-RW and P4Auth differ in what they put on the wire; what
happens to a request *around* the wire is the same for all three, and
lives here once:

- :class:`RetryPolicy` — how long an attempt may stay unanswered and when
  to stop trying.  Requests use a flat timeout; the key-management
  protocol uses the same arithmetic with exponential backoff and seeded
  jitter for its exchanges.
- :class:`RequestLifecycle` — per-switch sequence numbers, the
  ``(switch, seq) -> pending`` table, FIFO departure per switch, the
  response timeout, the retry-or-abandon decision and the completion-time
  measurement.  Each stack *owns* one and hands it a ``reissue`` function;
  a retry re-enters that function with the stored plain operands, so the
  stack composes (and P4Auth re-encrypts and re-signs) under a fresh
  sequence number.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, Optional, Tuple

from repro.crypto.prng import XorShiftPrng
from repro.net.network import Network
from repro.telemetry import RCT_BUCKETS

ResponseCallback = Callable[[bool, int], None]

#: How many per-request samples a stats object retains.  Every bounded
#: run (experiments, benchmarks) completes far fewer; a daemon that runs
#: for days keeps the newest window and exports the rest as histograms.
SAMPLE_WINDOW = 1 << 16


def sample_window() -> Deque:
    """An empty per-request sample container (newest ``SAMPLE_WINDOW``)."""
    return deque(maxlen=SAMPLE_WINDOW)


@dataclass(frozen=True)
class RetryPolicy:
    """How long to wait for attempt *n*, and after which attempt to stop.

    ``base_delay_s=None`` means fire-and-wait: nothing is ever timed out,
    retried or abandoned (the mode the §VIII DoS heuristics are tuned
    for).  Otherwise attempt *n* waits ``base_delay_s * factor**(n-1)``,
    never more than ``cap_s``, with up to ``jitter`` relative positive
    jitter from a PRNG seeded with ``seed`` on every retry.
    """

    base_delay_s: Optional[float]
    max_attempts: int = 3
    factor: float = 1.0
    cap_s: float = math.inf
    jitter: float = 0.0
    seed: int = 0x5EED
    _prng: XorShiftPrng = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_prng", XorShiftPrng(self.seed))

    def delay(self, attempt: int) -> float:
        """Timeout for the given attempt (1-based).

        Attempt 1 uses the base delay with no jitter (and consumes no
        randomness, keeping clean runs byte-identical to a jitter-free
        configuration).
        """
        delay = min(self.base_delay_s * self.factor ** (attempt - 1),
                    self.cap_s)
        if attempt > 1 and self.jitter > 0:
            delay *= 1.0 + self.jitter * self._prng.uniform()
        # The jitter multiplier applies before the ceiling, never above
        # it: ``cap_s`` is a hard bound, not a pre-jitter target.
        return min(delay, self.cap_s)

    def exhausted(self, attempt: int) -> bool:
        """True when ``attempt`` was the last one allowed."""
        return attempt >= self.max_attempts


@dataclass
class PendingRequest:
    """One request between issue and its terminal outcome.

    ``value`` is the caller's *plain* operand (never ciphertext), so a
    retry can be composed from this record alone.
    """

    kind: str  # "read" | "write"
    switch: str
    reg_name: str
    index: int
    value: int
    callback: Optional[ResponseCallback]
    attempt: int = 1
    sent_at: float = 0.0
    #: Request completion time, filled in by :meth:`RequestLifecycle.complete`.
    rct_s: float = 0.0
    timeout_handle: Optional[object] = None


class RequestLifecycle:
    """Everything a register-access stack does with a request but compose it.

    ``stack`` labels the shared ``runtime_*`` metrics; ``reissue(kind,
    switch, reg_name, index, value, callback, attempt)`` is the owning
    stack's compose-and-dispatch entry point; ``counters`` is the object
    whose ``request_retries`` / ``requests_abandoned`` attributes count
    this stack's retries and abandonments.
    """

    def __init__(self, network: Network, stack: str, policy: RetryPolicy,
                 reissue: Callable[..., int], counters) -> None:
        self.sim = network.sim
        self.telemetry = network.telemetry
        self.stack = stack
        self.policy = policy
        self.reissue = reissue
        self.counters = counters
        #: Next sequence number per switch (32-bit, wraps to 0).
        self.seq: Dict[str, int] = {}
        #: Optional observer ``seq_listener(switch, seq)`` fired inside
        #: :meth:`next_seq` *before* the number is handed to the caller
        #: — the durability layer journals sequence-horizon reservations
        #: here so a crash can never reuse a sequence number (the
        #: skip-ahead rule; see repro.store).
        self.seq_listener: Optional[Callable[[str, int], None]] = None
        self.pending: Dict[Tuple[str, int], PendingRequest] = {}
        # Per-switch departure horizon.  Compose costs differ by kind (a
        # read is ~6x cheaper to compose than a write), so with
        # overlapping composes a later-seq read would depart before an
        # earlier-seq write, the data plane's monotonic expected_seq
        # would jump past the write, and the write would be rejected as
        # a replay.  Issue is FIFO per switch: a request never departs
        # before one composed earlier.
        self._horizon: Dict[str, float] = {}

    def next_seq(self, switch: str) -> int:
        seq = self.seq[switch]
        if self.seq_listener is not None:
            self.seq_listener(switch, seq)
        self.seq[switch] = (seq + 1) & 0xFFFFFFFF
        return seq

    def dispatch(self, seq: int, request: PendingRequest, ready_at: float,
                 depart: Callable[..., None], *args,
                 timed: bool = True) -> None:
        """Track ``request`` and schedule ``depart(*args)`` FIFO per switch.

        ``ready_at`` is when the stack's own costs would let the request
        leave.  ``timed=False`` is for a stack that observes losses
        itself and reports them through :meth:`lost` instead of waiting
        on a timer.
        """
        now = self.sim.now
        switch = request.switch
        request.sent_at = now
        self.pending[(switch, seq)] = request
        depart_at = max(ready_at, self._horizon.get(switch, 0.0))
        self._horizon[switch] = depart_at
        self.sim.schedule_at(depart_at, depart, *args)
        if timed and self.policy.base_delay_s is not None:
            request.timeout_handle = self.sim.schedule_cancellable(
                depart_at - now + self.policy.delay(request.attempt),
                self._timed_out, switch, seq)

    def issue_each(self, switch: str, ops) -> list:
        """Issue ``(kind, reg_name, index, value, callback)`` ops back to
        back (``value`` ignored for reads); returns their seq numbers."""
        return [self.reissue(kind, switch, reg_name, index,
                             value if kind == "write" else 0, callback, 1)
                for kind, reg_name, index, value, callback in ops]

    def complete(self, switch: str, seq: int,
                 verify_s: float = 0.0) -> Optional[PendingRequest]:
        """A response for ``(switch, seq)`` arrived: settle the request.

        Returns the request with ``rct_s`` measured (``verify_s`` is the
        stack's remaining response-processing cost), or None when nothing
        is pending under that number — a duplicate, or a response to a
        request already given up on.
        """
        request = self.pending.pop((switch, seq), None)
        if request is None:
            return None
        if request.timeout_handle is not None:
            request.timeout_handle.cancel()
        request.rct_s = (self.sim.now + verify_s) - request.sent_at
        if self.telemetry.enabled:
            self.telemetry.metrics.histogram(
                "runtime_rct_seconds", buckets=RCT_BUCKETS,
                stack=self.stack, kind=request.kind).observe(request.rct_s)
        return request

    def lost(self, switch: str, seq: int) -> None:
        """The stack saw ``(switch, seq)`` die: decide without a timer.

        Fire-and-wait keeps its contract (nobody is told); otherwise the
        retry goes out one timeout from now and an exhausted request is
        abandoned at once.
        """
        request = self.pending[(switch, seq)]
        if self.policy.base_delay_s is None:
            del self.pending[(switch, seq)]
            return
        wait = (0.0 if self.policy.exhausted(request.attempt)
                else self.policy.delay(request.attempt))
        self.sim.schedule(wait, self._timed_out, switch, seq)

    def _timed_out(self, switch: str, seq: int) -> None:
        request = self.pending.pop((switch, seq), None)
        if request is None:
            return  # answered in the meantime (handle raced cancellation)
        if self.policy.exhausted(request.attempt):
            self.counters.requests_abandoned += 1
            if self.telemetry.enabled:
                self.telemetry.metrics.counter(
                    "runtime_requests_abandoned_total",
                    stack=self.stack, kind=request.kind).inc()
                self.telemetry.tracer.emit(
                    "runtime.request_abandoned", stack=self.stack,
                    switch=switch, kind=request.kind, reg=request.reg_name,
                    seq=seq, attempts=request.attempt)
            if request.callback is not None:
                request.callback(False, 0)
            return
        self.counters.request_retries += 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter(
                "runtime_request_retries_total",
                stack=self.stack, kind=request.kind).inc()
        self.reissue(request.kind, switch, request.reg_name, request.index,
                     request.value, request.callback, request.attempt + 1)

    def outstanding_count(self) -> int:
        """Requests issued whose outcome has not yet been decided."""
        return len(self.pending)

    def clear(self) -> None:
        """Forget every in-flight request and cancel its timer (a dead
        process has no timers)."""
        for request in self.pending.values():
            if request.timeout_handle is not None:
                request.timeout_handle.cancel()
        self.pending.clear()


__all__ = ["PendingRequest", "RequestLifecycle", "RetryPolicy",
           "ResponseCallback"]
