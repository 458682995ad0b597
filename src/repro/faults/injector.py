"""The fault injector: arms a :class:`FaultPlan` against a live network.

Link faults ride the network's delivery-shaper hook (one packet in, a
list of ``(packet, delay)`` deliveries out), so drop/duplicate/reorder
faults compose with — and never fork — the normal transmit path.  Node
faults and blackouts are scheduled simulator events and control-channel
taps.  Every random decision draws from a per-fault PRNG forked from the
plan seed in declaration order, which keeps a chaos run's full event
sequence (and therefore its telemetry trace) byte-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.prng import XorShiftPrng
from repro.dataplane.packet import Packet
from repro.faults.plan import (
    ChannelBlackout,
    FaultPlan,
    LinkFault,
    NodeFault,
)
from repro.net.links import ControlChannel, Link
from repro.net.network import Network, SwitchNode


@dataclass
class InjectorStats:
    """Tally of injections, by fault kind."""

    injections: Dict[str, int] = field(default_factory=dict)

    def count(self, kind: str) -> int:
        return self.injections.get(kind, 0)

    def total(self) -> int:
        return sum(self.injections.values())


class _LinkFaultState:
    """One armed link fault: its PRNG stream and nth-packet counter."""

    __slots__ = ("fault", "prng", "matched")

    def __init__(self, fault: LinkFault, prng: XorShiftPrng):
        self.fault = fault
        self.prng = prng
        self.matched = 0

    def fires(self) -> bool:
        self.matched += 1
        if self.fault.every_nth is not None:
            return self.matched % self.fault.every_nth == 0
        return self.prng.uniform() < self.fault.probability


class FaultInjector:
    """Arms/disarms a validated :class:`FaultPlan` on a :class:`Network`."""

    def __init__(self, network: Network, plan: FaultPlan):
        plan.validate()
        self.network = network
        self.sim = network.sim
        self.telemetry = network.telemetry
        self.plan = plan
        self.stats = InjectorStats()
        self.armed = False
        #: Called with the switch name after a crashed node restarts —
        #: chaos scenarios hook re-keying here (a restarted switch has a
        #: wiped key store and must go through KMP again).
        self.on_node_restart: List[Callable[[str], None]] = []
        self._link_states: List[_LinkFaultState] = []
        self._blackout_taps: List[Tuple[ControlChannel, Callable]] = []
        self._crash_handles: List[object] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def arm(self) -> "FaultInjector":
        """Install the plan: shaper, blackout taps, scheduled node faults."""
        if self.armed:
            raise RuntimeError("injector is already armed")
        if self.plan.link_faults and self.network.delivery_shaper is not None:
            raise RuntimeError("network already has a delivery shaper")
        self.armed = True
        base_prng = XorShiftPrng(self.plan.seed)
        self._link_states = [
            _LinkFaultState(fault, base_prng.fork())
            for fault in self.plan.link_faults
        ]
        if self._link_states:
            self.network.delivery_shaper = self._shape
        for blackout in self.plan.blackouts:
            channel = self.network.control_channels[blackout.switch]
            tap = self._make_blackout_tap(blackout, channel)
            channel.add_tap(tap)
            self._blackout_taps.append((channel, tap))
        for fault in self.plan.node_faults:
            node = self._switch_node(fault.switch)
            handle = self.sim.schedule_cancellable(
                max(0.0, fault.crash_at_s - self.sim.now),
                self._crash, fault, node)
            self._crash_handles.append(handle)
            if fault.restart_at_s is not None:
                self.sim.schedule(max(0.0, fault.restart_at_s - self.sim.now),
                                  self._restart, fault, node)
        if self.telemetry.enabled:
            self.telemetry.tracer.emit("fault.armed",
                                       faults=self.plan.fault_count(),
                                       seed=self.plan.seed)
        return self

    def disarm(self) -> None:
        """Withdraw link faults and blackouts (scheduled restarts still
        fire, so a crashed node is not stranded down)."""
        if not self.armed:
            return
        self.armed = False
        if self._link_states:
            self.network.delivery_shaper = None
        self._link_states = []
        for channel, tap in self._blackout_taps:
            channel.remove_tap(tap)
        self._blackout_taps = []
        for handle in self._crash_handles:
            handle.cancel()
        self._crash_handles = []
        if self.telemetry.enabled:
            self.telemetry.tracer.emit("fault.disarmed",
                                       injections=self.stats.total())

    # ------------------------------------------------------------------
    # link faults (delivery shaper)
    # ------------------------------------------------------------------

    def _shape(self, link: Link, direction: str, packet: Packet,
               delay: float) -> List[Tuple[Packet, float]]:
        deliveries: List[Tuple[Packet, float]] = [(packet, delay)]
        now = self.sim.now
        for state in self._link_states:
            fault = state.fault
            if not fault.active_at(now):
                continue
            if fault.direction is not None and fault.direction != direction:
                continue
            if not link.joins(fault.node_a, fault.node_b):
                continue
            if not state.fires():
                continue
            self._record(fault.kind, link.label, direction)
            if fault.kind == "drop":
                return []
            if fault.kind == "corrupt":
                self._corrupt(packet, state.prng)
            elif fault.kind == "duplicate":
                deliveries.append((packet.copy(), delay + fault.delay_s))
            elif fault.kind == "reorder":
                # Hold this packet back so later traffic overtakes it.
                deliveries = [(p, d + fault.delay_s) for p, d in deliveries]
            elif fault.kind == "jitter":
                extra = fault.delay_s * state.prng.uniform()
                deliveries = [(p, d + extra) for p, d in deliveries]
        return deliveries

    @staticmethod
    def _corrupt(packet: Packet, prng: XorShiftPrng) -> None:
        """Flip random bits in one random field of one random header."""
        names = packet.header_names()
        if not names:
            return
        header = packet.get(names[prng.next_bits(16) % len(names)])
        fields = header.header_type.fields
        fname, bits = fields[prng.next_bits(16) % len(fields)]
        mask = prng.next_bits(bits) or 1
        header[fname] = header[fname] ^ mask

    # ------------------------------------------------------------------
    # channel blackouts
    # ------------------------------------------------------------------

    def _make_blackout_tap(self, blackout: ChannelBlackout,
                           channel: ControlChannel):
        def tap(packet: Packet, direction: str) -> Optional[Packet]:
            if blackout.direction is not None and direction != blackout.direction:
                return packet
            if not blackout.active_at(self.sim.now):
                return packet
            self._record("blackout", channel.label, direction)
            return None
        return tap

    # ------------------------------------------------------------------
    # node faults
    # ------------------------------------------------------------------

    def _switch_node(self, name: str) -> SwitchNode:
        node = self.network.nodes[name]
        if not isinstance(node, SwitchNode):
            raise TypeError(f"node {name!r} is not a switch")
        return node

    def _crash(self, fault: NodeFault, node: SwitchNode) -> None:
        node.up = False
        if fault.wipe_registers:
            registers = node.switch.registers
            for name in registers.names():
                registers.get(name).clear()
        self._record("crash", fault.switch)
        if self.telemetry.enabled:
            self.telemetry.tracer.emit("fault.node_crash",
                                       switch=fault.switch,
                                       wiped=fault.wipe_registers)

    def _restart(self, fault: NodeFault, node: SwitchNode) -> None:
        node.up = True
        self._record("restart", fault.switch)
        if self.telemetry.enabled:
            self.telemetry.tracer.emit("fault.node_restart",
                                       switch=fault.switch)
        for hook in list(self.on_node_restart):
            hook(fault.switch)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def _record(self, kind: str, site: str, direction: str = "") -> None:
        stats = self.stats.injections
        stats[kind] = stats.get(kind, 0) + 1
        if self.telemetry.enabled:
            self.telemetry.metrics.counter("fault_injections_total",
                                           kind=kind).inc()
            self.telemetry.tracer.emit("fault.injected", kind=kind,
                                       site=site, direction=direction)
