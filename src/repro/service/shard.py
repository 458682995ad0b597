"""One controller shard: a deterministic deployment behind an asyncio queue.

A :class:`ShardWorker` owns the switches its shard was assigned: its own
:class:`~repro.net.simulator.EventSimulator`, network, register-access
stack (any of the three runtime stacks), and a
:class:`~repro.runtime.batch.BatchController` issue engine.  Client
requests arrive through :meth:`submit` (synchronous, called from the
service's dispatch path) and are resolved as asyncio futures when the
wrapped stack decides an outcome.

Concurrency model
-----------------
Everything runs on one asyncio event loop.  The worker task alternates
between (a) topping the issue engine up from the FIFO intake queue and
(b) advancing the shard's *virtual* clock in small steps so in-flight
requests complete.  The simulator only advances while the shard has
work, so idle shards cost nothing and per-request latency is measured
in honest busy-time virtual seconds.

Ordering: the intake queue is FIFO and the BatchController never
reorders one switch's requests, so interleaved clients can never make a
switch's ``expected_seq`` replay defense observe out-of-order sequence
numbers.

Backpressure: the intake queue is bounded (``queue_depth``); a full
shard raises :class:`ShardOverload`, which the daemon maps to HTTP 503.
The issue engine itself is capped at ``issue_window`` total in-flight
requests — the shard's share of the §IV outstanding-request DoS budget
(kept far below the controller's ``outstanding_threshold`` so a shard
can never trip its own defense).  Fleet throughput therefore scales
with the number of shards, which is the point of the service.
"""

from __future__ import annotations

import asyncio
import traceback
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Tuple

from repro.core.requests import sample_window
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.batch import BatchController
from repro.runtime.comparison import (
    attach_stack,
    bootstrap_local_keys,
    k_seeds_from,
)
from repro.store.recovery import (
    restore_dataplane,
    store_exists,
    warm_restart,
)
from repro.telemetry import NULL_TELEMETRY, MetricRegistry

#: Buckets for per-request service latency (virtual seconds): window
#: queueing stacks a few RTTs on top of the Fig 18 ~1 ms round trip.
SERVICE_LATENCY_BUCKETS: Tuple[float, ...] = (
    5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
)

#: Virtual-time window for the parallel key bootstrap at build time.
BOOTSTRAP_DEADLINE_S = 10.0

#: Virtual seconds each worker step advances a busy shard's clock.
STEP_S = 0.002

OP_KINDS = ("read", "write", "rollover")


class ShardOverload(RuntimeError):
    """The shard's bounded intake queue is full (or the shard is
    draining, or its worker loop failed); the daemon maps this to HTTP
    503."""

    def __init__(self, shard_id: str, reason: str):
        super().__init__(f"shard {shard_id}: {reason}")
        self.shard_id = shard_id
        self.reason = reason


@dataclass
class ShardOp:
    """One queued operation and the future its caller awaits."""

    kind: str  # "read" | "write" | "rollover"
    switch: str
    reg_name: str = ""
    index: int = 0
    value: int = 0
    future: Optional[asyncio.Future] = None
    #: Shard virtual time at submission (clock only moves while busy).
    submitted_at: float = 0.0


@dataclass
class ShardStats:
    submitted: int = 0
    completed: int = 0
    failed: int = 0
    rejected: int = 0
    rollovers: int = 0
    #: Virtual time of the first issue / most recent terminal outcome.
    first_issue_at: Optional[float] = None
    last_done_at: Optional[float] = None
    #: Per-request busy-time latency samples (virtual seconds).
    latency_samples: Deque[float] = field(default_factory=sample_window)

    @property
    def busy_s(self) -> float:
        """Virtual seconds between first issue and last outcome."""
        if self.first_issue_at is None or self.last_done_at is None:
            return 0.0
        return self.last_done_at - self.first_issue_at


def build_shard_stack(stack_name: str, switches: Sequence[str], seed: int,
                      registers: Sequence[Tuple[str, int, int]],
                      bootstrap: bool = True):
    """A fresh deployment of ``stack_name`` over the shard's switches.

    Returns ``(sim, net, stack, dataplanes)``.  Switches get the fleet's
    register schema; P4Auth switches additionally run the full local-key
    bootstrap (in parallel, inside the shard's virtual clock) before the
    shard accepts traffic.  C-DP traffic flows controller<->switch over
    per-switch control channels, so no inter-switch links are needed.

    ``bootstrap=False`` skips the P4Auth key negotiation: the caller is
    warm-restarting from a state directory and will reinstall journaled
    key material into both the controller and the (hardware-stand-in)
    dataplanes instead of negotiating fresh keys.
    """
    sim = EventSimulator()
    net = Network(sim)
    for offset, name in enumerate(switches):
        switch = DataplaneSwitch(name, num_ports=2, seed=seed + offset)
        net.add_switch(switch)
        for reg_name, width, size in registers:
            switch.registers.define(reg_name, width, size)
    stack, dataplanes = attach_stack(
        stack_name, net, switches, [reg for reg, _w, _s in registers],
        k_seeds_from(0x1000 + seed, switches),
        BOOTSTRAP_DEADLINE_S if bootstrap else None,
        seed=0xC0FFEE ^ seed)
    return sim, net, stack, dataplanes


class ShardWorker:
    """One shard: bounded FIFO intake -> windowed issue -> futures."""

    def __init__(self, shard_id: str, switches: Sequence[str], *,
                 stack_name: str = "P4Auth", seed: int = 1,
                 registers: Sequence[Tuple[str, int, int]] =
                 (("target", 64, 16),),
                 max_in_flight: int = 8, issue_window: int = 32,
                 queue_depth: int = 1024,
                 state_dir: Optional[str] = None, fsync: str = "batch",
                 snapshot_every: Optional[int] = 256,
                 metrics: MetricRegistry = NULL_TELEMETRY.metrics):
        self.shard_id = shard_id
        self.switches = tuple(switches)
        self.stack_name = stack_name
        self.seed = seed
        self.registers = tuple(registers)
        self.max_in_flight = max_in_flight
        self.issue_window = issue_window
        self.queue_depth = queue_depth
        #: Durable-state directory (P4Auth only; None: in-memory shard).
        self.state_dir = state_dir
        self.fsync = fsync
        self.snapshot_every = snapshot_every
        self.recorder = None
        self.recovery_report = None
        self.recovered = False
        self.stats = ShardStats()
        self.sim = None
        self.net = None
        self.stack = None
        self.batch: Optional[BatchController] = None
        self.dataplanes: Dict[str, object] = {}
        self._pending: Deque[ShardOp] = deque()
        #: Issued ops awaiting an outcome, by ``id``: what a failed
        #: worker loop still owes an answer.
        self._in_flight: Dict[int, ShardOp] = {}
        #: The exception that killed the worker loop, if one did.
        self.failure: Optional[BaseException] = None
        self._draining = False
        self._task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        # Per-shard service metrics live in the *service* registry (the
        # shard sims deliberately stay un-instrumented so N virtual
        # clocks never fight over one tracer).  The journal/snapshot
        # stores share that registry: their metrics are wall-clock
        # host-side observations, not simulated time.
        self._metrics = metrics
        if metrics.enabled:
            self._gauge_in_flight = metrics.gauge(
                "service_shard_in_flight", shard=shard_id)
            self._gauge_queue = metrics.gauge(
                "service_shard_queue_depth", shard=shard_id)
            self._gauge_switches = metrics.gauge(
                "service_shard_switches", shard=shard_id)
            self._counters = {
                kind: metrics.counter("service_requests_total",
                                      shard=shard_id, op=kind)
                for kind in OP_KINDS
            }
            self._counter_rejected = metrics.counter(
                "service_requests_rejected_total", shard=shard_id)
            self._counter_failed = metrics.counter(
                "service_request_failures_total", shard=shard_id)
            self._hists = {
                kind: metrics.histogram(
                    "service_request_seconds",
                    buckets=SERVICE_LATENCY_BUCKETS,
                    shard=shard_id, op=kind)
                for kind in OP_KINDS
            }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Build the deployment (bootstrap included) and start serving.

        With a ``state_dir`` (P4Auth only), the shard is durable: a
        fresh directory journals the bootstrap as it happens; one that
        already holds a journal triggers a warm restart — key material
        and sequence horizons are replayed into the new controller, the
        simulated switches (stand-ins for hardware whose registers
        survived the crash) are re-seeded from the same journaled state,
        and any batch window open at crash time is reconciled with an
        authenticated register read before traffic resumes.
        """
        if self._task is not None:
            raise RuntimeError(f"shard {self.shard_id} already started")
        durable = self.state_dir is not None and self.stack_name == "P4Auth"
        warm = durable and store_exists(self.state_dir)
        self.sim, self.net, self.stack, self.dataplanes = build_shard_stack(
            self.stack_name, self.switches, self.seed, self.registers,
            bootstrap=not warm)
        self.batch = BatchController(self.stack,
                                     max_in_flight=self.max_in_flight)
        if durable:
            self.recorder, self.recovery_report = warm_restart(
                self.state_dir, self.stack, batch=self.batch,
                shard_id=self.shard_id, fsync=self.fsync,
                snapshot_every=self.snapshot_every,
                metrics=self._metrics, shard=self.shard_id)
            self.recovered = warm
            if warm:
                self._settle_recovery()
        if self._metrics.enabled:
            self._gauge_switches.set(len(self.switches))
        self._wake = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name=f"shard-{self.shard_id}")

    def _settle_recovery(self) -> None:
        """Finish a warm restart before the shard accepts traffic.

        The journaled state was already poured into the controller; this
        re-seeds the hardware stand-ins, lets the reconciliation reads
        resolve in virtual time, and falls back to a fresh KMP bootstrap
        for any switch whose keys never became durable (a crash between
        provisioning and the journal's first fsync).
        """
        state = self.recovery_report.state
        for dataplane in self.dataplanes.values():
            restore_dataplane(dataplane, state)
        # Reconciliation reads were issued by warm_restart but deliver
        # only as the virtual clock advances (after the registers above
        # were restored — no packet outruns the restore).
        self.sim.run(until=self.sim.now + BOOTSTRAP_DEADLINE_S)
        missing = [name for name in self.switches
                   if not self.stack.keys.has_local_key(name)]
        if missing:
            bootstrap_local_keys(self.stack, missing, BOOTSTRAP_DEADLINE_S)

    async def stop(self) -> None:
        """Graceful drain: stop intake, finish queued work, exit."""
        if self._task is None:
            return
        self._draining = True
        self._wake.set()
        await self._task
        self._task = None
        if self.recorder is not None:
            # Drained: snapshot the final state so the next start
            # replays (almost) nothing, then seal the journal.  A failed
            # loop stopped mid-event, so it leaves the journal as is.
            if self.failure is None:
                self.recorder.snapshot()
            self.recorder.detach()
            self.recorder.journal.close()

    @property
    def idle(self) -> bool:
        return not self._pending and not self._in_flight

    # ------------------------------------------------------------------
    # intake (synchronous: the daemon calls this from dispatch)
    # ------------------------------------------------------------------

    def submit(self, op: ShardOp) -> asyncio.Future:
        """Enqueue one op; returns the future its caller awaits.

        Raises :class:`ShardOverload` when the bounded queue is full,
        the shard is draining or its worker loop failed — callers must
        not retry blindly.
        """
        reason = None
        if self.failure is not None:
            reason = "failed"
        elif self._task is None or self._draining:
            reason = "draining"
        elif len(self._pending) + len(self._in_flight) >= self.queue_depth:
            reason = f"queue full ({self.queue_depth} ops)"
        if reason is not None:
            self.stats.rejected += 1
            if self._metrics.enabled:
                self._counter_rejected.inc()
            raise ShardOverload(self.shard_id, reason)
        op.future = asyncio.get_running_loop().create_future()
        op.submitted_at = self.sim.now
        self.stats.submitted += 1
        self._pending.append(op)
        if self._metrics.enabled:
            self._counters[op.kind].inc()
            self._gauge_queue.set(len(self._pending))
        self._wake.set()
        return op.future

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------

    async def _run(self) -> None:
        try:
            while True:
                if self.idle:
                    if self._draining:
                        break
                    self._wake.clear()
                    await self._wake.wait()
                    continue
                self._top_up()
                if self._in_flight:
                    # Advance the shard's virtual clock one step;
                    # completion callbacks fire inside run() and refill
                    # the window.
                    self.sim.run(until=self.sim.now + STEP_S)
                # Yield so clients observe resolved futures and enqueue
                # follow-up work before the next step.
                await asyncio.sleep(0)
        except Exception as exc:  # noqa: BLE001 - shard boundary
            # The deployment stopped mid-event and cannot be trusted to
            # serve on: answer everything it owes as failed, refuse new
            # work (503) and let stop() return, instead of dying
            # silently with every caller left waiting.
            traceback.print_exc()
            self.failure = exc
            self._in_flight.update((id(op), op) for op in self._pending)
            self._pending.clear()
            for op in list(self._in_flight.values()):
                self._op_done(op, False, 0)
        if self._metrics.enabled:
            self._gauge_in_flight.set(0)
            self._gauge_queue.set(0)

    def _top_up(self) -> None:
        """Issue from the FIFO head while the window has room.

        Register ops drain through :meth:`BatchController.submit_many`
        so a refill becomes per-switch bursts the stack can sign with
        one ``sign_many`` call (the vectorized digest lane).
        A rollover op flushes the accumulated run first — everything
        submitted before it still issues before it, preserving the FIFO
        guarantee interleaved clients rely on.
        """
        reg_ops: List[ShardOp] = []
        while self._pending and len(self._in_flight) < self.issue_window:
            op = self._pending.popleft()
            self._in_flight[id(op)] = op
            if self.stats.first_issue_at is None:
                self.stats.first_issue_at = self.sim.now
            if op.kind == "rollover":
                self._flush_reg_ops(reg_ops)
                reg_ops = []
                self._issue_rollover(op)
            else:
                reg_ops.append(op)
        self._flush_reg_ops(reg_ops)
        if self._metrics.enabled:
            self._gauge_in_flight.set(len(self._in_flight))
            self._gauge_queue.set(len(self._pending))

    def _flush_reg_ops(self, reg_ops: List[ShardOp]) -> None:
        if not reg_ops:
            return
        self.batch.submit_many([
            (op.kind, op.switch, op.reg_name, op.index, op.value,
             lambda ok, value, op=op: self._op_done(op, ok, value))
            for op in reg_ops])

    def _issue_rollover(self, op: ShardOp) -> None:
        def done(outcome) -> None:
            # An exchange that hit its retry cap fails the op instead of
            # leaving its future pending forever.
            if outcome.ok:
                self.stats.rollovers += 1
            self._op_done(op, outcome.ok,
                          self.stack.keys.local_key_version(op.switch)
                          if outcome.ok else 0)

        self.stack.kmp.local_key_update(op.switch, on_done=done)

    def _op_done(self, op: ShardOp, ok: bool, value: int) -> None:
        del self._in_flight[id(op)]
        self.stats.completed += 1 if ok else 0
        self.stats.failed += 0 if ok else 1
        self.stats.last_done_at = self.sim.now
        latency = self.sim.now - op.submitted_at
        self.stats.latency_samples.append(latency)
        if self._metrics.enabled:
            self._hists[op.kind].observe(latency)
            self._gauge_in_flight.set(len(self._in_flight))
            if not ok:
                self._counter_failed.inc()
        if op.future is not None and not op.future.done():
            op.future.set_result((ok, value))
        # Refill immediately so the window stays full mid-step.
        self._top_up()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        status = {
            "shard": self.shard_id,
            "stack": self.stack_name,
            "switches": len(self.switches),
            "queued": len(self._pending),
            "in_flight": len(self._in_flight),
            "issue_window": self.issue_window,
            "queue_depth": self.queue_depth,
            "submitted": self.stats.submitted,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "rejected": self.stats.rejected,
            "rollovers": self.stats.rollovers,
            "busy_virtual_s": self.stats.busy_s,
            "draining": self._draining,
            "failure": (None if self.failure is None else
                        f"{type(self.failure).__name__}: {self.failure}"),
        }
        if self.recorder is not None:
            report = self.recovery_report
            status["store"] = {
                "state_dir": self.state_dir,
                "fsync": self.fsync,
                "journal_records": self.recorder.journal.next_lsn,
                "journal_lag": self.recorder.journal.lag,
                "torn_records": self.recorder.journal.torn_records,
                "recovered": self.recovered,
                "recovery_s": report.duration_s,
                "replayed_records": report.replayed_records,
                "snapshot_used": report.snapshot_used,
                "windows_reconciled": report.windows_reconciled,
            }
        return status


__all__ = [
    "BOOTSTRAP_DEADLINE_S",
    "OP_KINDS",
    "SERVICE_LATENCY_BUCKETS",
    "STEP_S",
    "ShardOp",
    "ShardOverload",
    "ShardStats",
    "ShardWorker",
    "build_shard_stack",
]
