"""The simulated network: nodes, wiring, and message delivery.

:class:`Network` owns the switch/host nodes, the links between data-plane
ports, and one control channel per switch toward a single logical
controller.  It translates pipeline actions (Emit/ToController/Drop) into
scheduled events, charging the cost model for switch processing (including
per-digest costs, measured as hash-extern invocation deltas) and link
delays.

Every way a packet can vanish — unwired port, downed link, tap (MitM)
kill, missing controller — increments a named drop counter and emits a
``packet.drop`` trace event.  Forwarding accountability is a security
primitive here (SDNsec): nothing disappears without a reason on record.
"""

from __future__ import annotations

from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import Emit, ToController
from repro.dataplane.switch import DataplaneSwitch
from repro.crypto.prng import XorShiftPrng
from repro.net.costs import CostModel
from repro.net.links import ControlChannel, Link
from repro.net.simulator import EventSimulator

#: Drop reasons the network layer can record (DESIGN.md "Observability").
DROP_UNWIRED_PORT = "unwired_port"
DROP_LINK_DOWN = "link_down"
DROP_TAP = "tamper_tap"
DROP_CONTROL_TAP = "control_tamper_tap"
DROP_NO_CONTROLLER = "no_controller"
DROP_NODE_DOWN = "node_down"
DROP_FAULT_INJECTED = "fault_injected"

#: Seed of the control-channel jitter stream (:meth:`Network.jittered`).
JITTER_SEED = 0x7177E4

#: A delivery shaper decides how a packet that survived the tap chain
#: actually arrives: it returns a list of ``(packet, delay_s)`` deliveries
#: (empty = injected loss, two entries = duplication, inflated delay =
#: reorder/jitter).  ``repro.faults.FaultInjector`` installs one; the
#: default ``None`` keeps the exact pre-fault behavior.
DeliveryShaper = Callable[["Link", str, Packet, float],
                          List[Tuple[Packet, float]]]


class PortPlan(NamedTuple):
    """What :meth:`Network.transmit` needs to know about one wired port.

    Built once in :meth:`Network.connect`: wiring never changes after
    that.  It holds the link *object* and the peer's *name* — ``link.up``,
    ``link.taps`` and ``nodes[peer_name]`` are read at transmit time, so
    link faults, taps and node replacement stay live.
    """

    link: Link
    direction: str
    peer_name: str
    peer_port: int
    packets_counter: object
    bytes_counter: object


class SwitchNode:
    """A data-plane switch attached to the network fabric."""

    def __init__(self, network: "Network", switch: DataplaneSwitch):
        self.network = network
        self.switch = switch
        self.name = switch.name
        #: Crash state: a downed switch eats every arriving packet (with a
        #: named drop reason).  Flipped by node faults (repro.faults).
        self.up = True
        metrics = network.telemetry.metrics
        self._packets_counter = metrics.counter(
            "net_switch_packets_total", switch=self.name)
        self._hash_counter = metrics.counter(
            "dataplane_hash_ops_total", switch=self.name)

    def receive(self, packet: Packet, ingress_port: int) -> None:
        """Handle an arriving packet: run the pipeline, schedule outcomes."""
        network = self.network
        sim = network.sim
        costs = network.costs
        if not self.up:
            network.count_drop(DROP_NODE_DOWN, self.name, ingress_port)
            return
        switch = self.switch
        hash_extern = switch.hash
        hash_before = hash_extern.invocations
        actions = switch.process(packet, ingress_port, now=sim.now)
        hash_ops = hash_extern.invocations - hash_before
        self._packets_counter.inc()
        if hash_ops:
            self._hash_counter.inc(hash_ops)
        proc_delay = costs.switch_fwd_s + hash_ops * costs.digest_op_s
        for action in actions:
            kind = type(action)
            if kind is Emit:
                sim.schedule(
                    proc_delay, network.transmit, self.name,
                    action.port, action.packet,
                )
            elif kind is ToController:
                sim.schedule(
                    proc_delay, network.send_packet_in,
                    self.name, action.packet,
                )


class HostNode:
    """An end host: generates and sinks packets on a single access port."""

    def __init__(self, network: "Network", name: str):
        self.network = network
        self.name = name
        #: Called with ``(packet, now)`` on every arrival when set.
        self.on_packet: Optional[Callable[[Packet, float], None]] = None
        self.received: List[Tuple[float, Packet]] = []
        self.sent_count = 0

    def receive(self, packet: Packet, ingress_port: int) -> None:
        self.received.append((self.network.sim.now, packet))
        if self.on_packet is not None:
            self.on_packet(packet, self.network.sim.now)

    def send(self, packet: Packet, port: int = 1) -> None:
        """Transmit a packet out of the host's access port."""
        self.sent_count += 1
        self.network.sim.schedule(
            self.network.costs.host_fixed_s, self.network.transmit,
            self.name, port, packet
        )


class Network:
    """Nodes + links + control channels, bound to an event simulator."""

    def __init__(self, sim: EventSimulator, costs: Optional[CostModel] = None):
        self.sim = sim
        self.telemetry = sim.telemetry
        self.costs = costs or CostModel()
        self._jitter_prng = XorShiftPrng(JITTER_SEED)
        self.nodes: Dict[str, object] = {}
        #: (node, port) -> its plan; the one table of what is wired where.
        self._ports: Dict[Tuple[str, int], PortPlan] = {}
        self.links: List[Link] = []
        self.control_channels: Dict[str, ControlChannel] = {}
        self.controller = None  # set by attach_controller
        #: Optional fault-injection delivery shaper (see DeliveryShaper).
        self.delivery_shaper: Optional[DeliveryShaper] = None
        self.port_status_listeners: List[Callable[[str, int, bool], None]] = []
        #: Drop tally by reason — populated by every formerly silent
        #: drop path; always on (it is just a dict increment).
        self.drop_counts: Dict[str, int] = {}

    # -- construction ---------------------------------------------------------

    def add_switch(self, switch: DataplaneSwitch) -> SwitchNode:
        if switch.name in self.nodes:
            raise ValueError(f"node {switch.name!r} already exists")
        # Switches created standalone default to the null telemetry; wire
        # them to the fabric's instance so pipeline/auth instrumentation
        # reports into the same registry.
        if self.telemetry.enabled and not switch.telemetry.enabled:
            switch.telemetry = self.telemetry
        node = SwitchNode(self, switch)
        self.nodes[switch.name] = node
        self.control_channels[switch.name] = ControlChannel(
            switch.name, self.costs.cdp_one_way_s
        )
        return node

    def add_host(self, name: str) -> HostNode:
        if name in self.nodes:
            raise ValueError(f"node {name!r} already exists")
        node = HostNode(self, name)
        self.nodes[name] = node
        return node

    def connect(self, name_a: str, port_a: int, name_b: str, port_b: int
                ) -> Link:
        """Wire two node ports together with a link at the cost model's
        latency and :class:`Link`'s default line rate."""
        for name, port in ((name_a, port_a), (name_b, port_b)):
            if name not in self.nodes:
                raise KeyError(f"unknown node {name!r}")
            if (name, port) in self._ports:
                raise ValueError(f"port {port} on {name!r} is already wired")
        link = Link((name_a, port_a), (name_b, port_b),
                    self.costs.link_latency_s)
        self.links.append(link)
        metrics = self.telemetry.metrics
        for name, port in (link.end_a, link.end_b):
            direction = link.direction_from(name, port)
            peer_name, peer_port = link.peer_of(name, port)
            self._ports[(name, port)] = PortPlan(
                link, direction, peer_name, peer_port,
                metrics.counter("net_link_packets_total", link=link.label,
                                direction=direction),
                metrics.counter("net_link_bytes_total", link=link.label,
                                direction=direction),
            )
        return link

    def link_between(self, name_a: str, name_b: str) -> Link:
        """Find the (first) link joining two named nodes."""
        for link in self.links:
            names = {link.end_a[0], link.end_b[0]}
            if names == {name_a, name_b}:
                return link
        raise KeyError(f"no link between {name_a!r} and {name_b!r}")

    def attach_controller(self, controller) -> None:
        """Bind the (single, logical) controller.

        The controller object must expose
        ``handle_packet_in(switch_name, packet)``.
        """
        self.controller = controller

    def switch(self, name: str) -> DataplaneSwitch:
        node = self.nodes[name]
        if not isinstance(node, SwitchNode):
            raise TypeError(f"node {name!r} is not a switch")
        return node.switch

    def switch_names(self) -> List[str]:
        return [n for n, node in self.nodes.items() if isinstance(node, SwitchNode)]

    # -- drop accounting ----------------------------------------------------------

    def count_drop(self, reason: str, node: str, port: int = -1) -> None:
        """Record a packet loss with a named reason (never silent)."""
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        telemetry = self.telemetry
        if telemetry.enabled:
            telemetry.metrics.counter("net_dropped_packets_total",
                                      reason=reason, node=node).inc()
            telemetry.tracer.emit("packet.drop", layer="net", reason=reason,
                                  node=node, port=port)

    # -- data-plane delivery ------------------------------------------------------

    def transmit(self, from_name: str, port: int, packet: Packet) -> None:
        """Put a packet on the wire out of (from_name, port)."""
        plan = self._ports.get((from_name, port))
        if plan is None:
            # Unwired port: the packet falls off the edge (like real HW),
            # but the fall is on record.
            self.count_drop(DROP_UNWIRED_PORT, from_name, port)
            return
        (link, direction, peer_name, peer_port,
         packets_counter, bytes_counter) = plan
        if not link.up:
            self.count_drop(DROP_LINK_DOWN, from_name, port)
            return
        survivor = link.transit(packet, direction)
        if survivor is None:
            self.count_drop(DROP_TAP, from_name, port)
            return
        size_bytes = survivor.size_bytes
        packets_counter.inc()
        bytes_counter.inc(size_bytes)
        sim = self.sim
        delay = link.transmit_delay(size_bytes, direction, sim.now)
        peer = self.nodes[peer_name]
        shaper = self.delivery_shaper
        if shaper is None:
            sim.schedule(delay, peer.receive, survivor, peer_port)
            return
        deliveries = shaper(link, direction, survivor, delay)
        if not deliveries:
            self.count_drop(DROP_FAULT_INJECTED, from_name, port)
            return
        for shaped_packet, shaped_delay in deliveries:
            sim.schedule(shaped_delay, peer.receive, shaped_packet, peer_port)

    def jittered(self, delay: float) -> float:
        """Apply the cost model's uniform relative jitter (seeded)."""
        fraction = self.costs.jitter_fraction
        if fraction <= 0:
            return delay
        return delay * (1.0 + fraction * (2.0 * self._jitter_prng.uniform()
                                          - 1.0))

    # -- control-plane delivery (PacketOut / PacketIn) ----------------------------

    def send_packet_out(self, switch_name: str, packet: Packet) -> None:
        """Controller -> switch data plane, through the untrusted OS."""
        channel = self.control_channels[switch_name]
        survivor = channel.transit(packet, "c->dp")
        if survivor is None:
            self.count_drop(DROP_CONTROL_TAP, switch_name)
            return
        node = self.nodes[switch_name]
        self.sim.schedule(
            self.jittered(channel.latency_s), node.receive, survivor,
            DataplaneSwitch.CPU_PORT,
        )

    def send_packet_in(self, switch_name: str, packet: Packet) -> None:
        """Switch data plane -> controller, through the untrusted OS."""
        if self.controller is None:
            self.count_drop(DROP_NO_CONTROLLER, switch_name)
            return
        channel = self.control_channels[switch_name]
        survivor = channel.transit(packet, "dp->c")
        if survivor is None:
            self.count_drop(DROP_CONTROL_TAP, switch_name)
            return
        self.sim.schedule(
            self.jittered(channel.latency_s) + self.costs.controller_proc_s,
            self.controller.handle_packet_in, switch_name, survivor,
        )

    # -- topology events -----------------------------------------------------------

    def set_link_up(self, link: Link, up: bool) -> None:
        """Flip a link's status and notify listeners (LLDP-style events)."""
        link.up = up
        telemetry = self.telemetry
        if telemetry.enabled:
            state = "up" if up else "down"
            telemetry.metrics.counter("net_link_transitions_total",
                                      link=link.label, state=state).inc()
            telemetry.tracer.emit(f"link.{state}", link=link.label)
        for name, port in (link.end_a, link.end_b):
            if isinstance(self.nodes.get(name), SwitchNode):
                for listener in self.port_status_listeners:
                    listener(name, port, up)

    def on_port_status(self, listener: Callable[[str, int, bool], None]) -> None:
        """Subscribe to port up/down events (the controller's LLDP feed)."""
        self.port_status_listeners.append(listener)

    def neighbor_ports(self, switch_name: str) -> Dict[int, Tuple[str, int]]:
        """Map of local port -> (peer switch, peer port), switches only."""
        result: Dict[int, Tuple[str, int]] = {}
        for (name, port), plan in self._ports.items():
            if name != switch_name:
                continue
            if isinstance(self.nodes.get(plan.peer_name), SwitchNode):
                result[port] = (plan.peer_name, plan.peer_port)
        return result
