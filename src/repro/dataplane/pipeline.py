"""The match-action pipeline and its per-packet execution context.

A pipeline is an ordered list of named stages, each a callable over a
:class:`PipelineContext`.  Stages correspond to P4 control blocks; they
may consult tables, read/write registers, and record verdicts.  The
context collects the packet's fate as a list of actions (:class:`Emit`,
:class:`ToController`, :class:`Drop`, :class:`Recirculate`) that the
network layer turns into scheduled events.

There is deliberately no way for a stage to loop over the packet — the
structure mirrors PISA's feed-forward constraint.  Recirculation is the
only iteration mechanism, and it is explicit and costed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.dataplane.packet import Packet


@dataclass
class Emit:
    """Forward the packet out of an egress port."""

    port: int
    packet: Packet


@dataclass
class ToController:
    """Send the packet to the controller as a PacketIn message."""

    packet: Packet
    reason: str = ""


@dataclass
class Drop:
    """Discard the packet."""

    packet: Packet
    reason: str = ""


@dataclass
class Recirculate:
    """Re-inject the packet at the top of the pipeline (costs a pass)."""

    packet: Packet


#: Everything a stage can do with a packet.  The network layer
#: dispatches on the concrete type; keeping the union closed here means
#: a new verdict class must also teach the dispatcher about itself.
PipelineAction = Union[Emit, ToController, Drop, Recirculate]


class PipelineContext:
    """Mutable per-packet state threaded through the pipeline stages."""

    def __init__(self, switch, packet: Packet, ingress_port: int, now: float = 0.0):
        self.switch = switch
        self.packet = packet
        self.ingress_port = ingress_port
        self.now = now
        self.actions: List[PipelineAction] = []
        self._stopped = False
        self.stage_trace: List[str] = []

    # -- verdicts -----------------------------------------------------------

    def emit(self, port: int, packet: Optional[Packet] = None) -> None:
        """Queue the packet (or a clone) for egress on ``port``."""
        self.actions.append(Emit(port, packet if packet is not None else self.packet))

    def to_controller(self, packet: Optional[Packet] = None, reason: str = "") -> None:
        """Queue a PacketIn toward the controller."""
        self.actions.append(
            ToController(packet if packet is not None else self.packet, reason)
        )

    def drop(self, reason: str = "") -> None:
        """Discard the packet and stop further stages."""
        self.actions.append(Drop(self.packet, reason))
        self._stopped = True

    def recirculate(self, packet: Optional[Packet] = None) -> None:
        self.actions.append(
            Recirculate(packet if packet is not None else self.packet)
        )

    def stop(self) -> None:
        """Short-circuit the remaining stages (like P4's exit)."""
        self._stopped = True


Stage = Callable[[PipelineContext], None]


class Pipeline:
    """An ordered, feed-forward list of named stages."""

    def __init__(self, name: str = "ingress"):
        self.name = name
        self._stages: List[Tuple[str, Stage]] = []

    def add_stage(self, name: str, fn: Stage) -> "Pipeline":
        """Append a stage; returns self for chaining."""
        if any(existing == name for existing, _ in self._stages):
            raise ValueError(f"pipeline already has a stage named {name!r}")
        self._stages.append((name, fn))
        return self

    def insert_stage(self, index: int, name: str, fn: Stage) -> "Pipeline":
        """Insert a stage at a position (P4Auth installs itself first)."""
        if any(existing == name for existing, _ in self._stages):
            raise ValueError(f"pipeline already has a stage named {name!r}")
        self._stages.insert(index, (name, fn))
        return self

    def stage_names(self) -> List[str]:
        return [name for name, _ in self._stages]

    def run(self, ctx: PipelineContext) -> List[PipelineAction]:
        """Execute the stages in order until done or stopped."""
        # Per-stage occupancy counters; ctx.switch may be a bare stub in
        # unit tests, hence the defensive getattr.
        telemetry = getattr(ctx.switch, "telemetry", None)
        if telemetry is not None and telemetry.enabled:
            metrics = telemetry.metrics
            switch_name = getattr(ctx.switch, "name", "?")
        else:
            metrics = None
            switch_name = ""
        trace = ctx.stage_trace
        for name, fn in self._stages:
            if ctx._stopped:
                break
            trace.append(name)
            if metrics is not None:
                metrics.counter("dataplane_stage_packets_total",
                                switch=switch_name, stage=name).inc()
            fn(ctx)
        return ctx.actions

    def __len__(self) -> int:
        return len(self._stages)
