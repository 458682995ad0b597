"""The match-action pipeline and its per-packet execution context.

A pipeline is an ordered list of named stages, each a callable over a
:class:`PipelineContext`.  Stages correspond to P4 control blocks; they
may consult tables, read/write registers, and record verdicts.  The
context collects the packet's fate as a list of actions (:class:`Emit`,
:class:`ToController`, :class:`Drop`) that the network layer turns into
scheduled events.

There is deliberately no way for a stage to loop over the packet — the
structure mirrors PISA's feed-forward constraint: a packet makes one
pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple, Union

from repro.dataplane.packet import Packet
from repro.telemetry import NULL_TELEMETRY, MetricRegistry


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


#: Everything a stage can do with a packet.  The network layer
#: dispatches on the concrete type; keeping the union closed here means
#: a new verdict class must also teach the dispatcher about itself.
PipelineAction = Union[Emit, ToController, Drop]


class PipelineContext:
    """Mutable per-packet state threaded through the pipeline stages."""

    __slots__ = ("switch", "packet", "ingress_port", "now", "actions",
                 "_stopped", "stage")

    def __init__(self, switch, packet: Packet, ingress_port: int, now: float = 0.0):
        self.switch = switch
        self.packet = packet
        self.ingress_port = ingress_port
        self.now = now
        self.actions: List[PipelineAction] = []
        self._stopped = False
        #: The stage running (or, once stopped, the one that stopped it).
        self.stage = "unstaged"

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

    def stop(self) -> None:
        """Short-circuit the remaining stages (like P4's exit)."""
        self._stopped = True


Stage = Callable[[PipelineContext], None]


class Pipeline:
    """An ordered, feed-forward list of named stages."""

    def __init__(self, name: str = "ingress"):
        self.name = name
        self._stages: List[Tuple[str, Stage, Stage]] = []
        self._metrics: MetricRegistry = NULL_TELEMETRY.metrics
        self._switch_name = ""

    def bind(self, metrics: MetricRegistry, switch_name: str) -> None:
        """Rebuild what ``run`` calls for each stage from the stage itself
        (a stage added later builds its own) against ``metrics``."""
        self._metrics = metrics
        self._switch_name = switch_name
        self._stages = [(name, fn, self._counted(name, fn))
                        for name, fn, _ in self._stages]

    def _counted(self, stage: str, fn: Stage) -> Stage:
        """What ``run`` calls: ``fn``, or a closure that counts it first."""
        if not self._metrics.enabled:
            return fn
        packets = self._metrics.bind_counter(
            "dataplane_stage_packets_total", switch=self._switch_name,
            stage=stage)

        def counted(ctx: PipelineContext) -> None:
            packets.inc()
            fn(ctx)
        return counted

    def add_stage(self, name: str, fn: Stage) -> "Pipeline":
        """Append a stage; returns self for chaining."""
        return self._insert(len(self._stages), name, fn)

    def insert_stage(self, index: int, name: str, fn: Stage) -> "Pipeline":
        """Insert a stage at a position (P4Auth installs itself first)."""
        return self._insert(index, name, fn)

    def _insert(self, index: int, name: str, fn: Stage) -> "Pipeline":
        if name in self.stage_names():
            raise ValueError(f"pipeline already has a stage named {name!r}")
        self._stages.insert(index, (name, fn, self._counted(name, fn)))
        return self

    def stage_names(self) -> List[str]:
        return [name for name, _, _ in self._stages]

    def run(self, ctx: PipelineContext) -> List[PipelineAction]:
        """Execute the stages in order until done or stopped."""
        for name, _, call in self._stages:
            if ctx._stopped:
                break
            ctx.stage = name
            call(ctx)
        return ctx.actions
