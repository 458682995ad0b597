"""Controller crash/restore fault actions (the recovery chaos surface).

The existing :class:`~repro.faults.injector.FaultInjector` crashes
*switches*; this module crashes the **controller** — the failure mode
``repro.store`` exists for.  :class:`ControllerKillSwitch` models
SIGKILL of the controller process at a precise, durability-relevant
instant:

- the journal is truncated to its last fsynced byte
  (:meth:`~repro.store.journal.Journal.simulate_crash`) — whatever the
  fsync policy had not yet made durable is gone, exactly as on a real
  host;
- the recorder is detached (a dead process journals nothing more);
- the controller is halted (timers cancelled, in-flight table dropped)
  and unbound from the network, so late data-plane responses drop with
  ``DROP_NO_CONTROLLER`` instead of reaching a ghost.

Requests whose departure was already scheduled still reach their
switches — the packet had been handed to the NIC — which is the
adversarially *hard* case for recovery: the data plane's
``expected_seq`` advances past numbers the dead controller never heard
acknowledged, and the restarted controller must agree with that without
tripping any defense.

Kill triggers: :meth:`arm_on_record` fires the kill synchronously on
the Nth journal append of a given record type (the crash-point matrix
test walks every type in :data:`~repro.store.journal.RECORD_TYPES`);
:meth:`arm_at` fires at a virtual-time delay mid-workload.
"""

from __future__ import annotations

from typing import Optional

from repro.store.journal import RECORD_TYPES
from repro.store.recorder import StateRecorder


class ControllerKillSwitch:
    """Kill the live controller at an armed trigger point."""

    def __init__(self, network, recorder: StateRecorder):
        self.network = network
        self.recorder = recorder
        self.kills = 0
        #: Virtual time of the (last) kill, None if never fired.
        self.killed_at: Optional[float] = None
        #: The journal record whose append pulled the trigger.
        self.kill_record = None
        self._hook = None
        self._countdown = 0

    # -- triggers ----------------------------------------------------------

    def arm_on_record(self, rec_type: str, occurrence: int = 1) -> None:
        """Kill when the ``occurrence``-th record of ``rec_type`` is
        appended (synchronously: the record itself is already on disk —
        or not, under lazy fsync — when the process dies)."""
        if rec_type not in RECORD_TYPES:
            raise ValueError(f"unknown record type {rec_type!r}")
        if self._hook is not None:
            raise RuntimeError("kill switch is already armed")
        self._countdown = occurrence

        def on_append(record) -> None:
            if record.type != rec_type:
                return
            self._countdown -= 1
            if self._countdown <= 0:
                self.kill_record = record
                self.kill()

        self._hook = on_append
        self.recorder.journal.on_append.append(on_append)

    def arm_at(self, delay_s: float) -> None:
        """Kill after ``delay_s`` of virtual time (mid-workload crash)."""
        controller = self.network.controller
        controller.sim.schedule(delay_s, self.kill)

    def disarm(self) -> None:
        if self._hook is not None:
            try:
                self.recorder.journal.on_append.remove(self._hook)
            except ValueError:
                pass
            self._hook = None

    # -- the kill ----------------------------------------------------------

    def kill(self) -> None:
        """SIGKILL now.  Idempotent; safe to call with no controller."""
        controller = self.network.controller
        if controller is None:
            return
        self.disarm()
        self.recorder.journal.simulate_crash()
        self.recorder.detach()
        controller.halt()
        self.kills += 1
        self.killed_at = controller.sim.now
        telemetry = self.network.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("fault_controller_kills_total").inc()
            telemetry.tracer.emit(
                "fault.controller_kill",
                at=self.killed_at,
                record=(self.kill_record.type
                        if self.kill_record is not None else None))


__all__ = ["ControllerKillSwitch"]
