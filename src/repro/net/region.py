"""Region-sharded simulation: N per-region worlds in bounded-lag lockstep.

A :class:`Region` owns its own :class:`~repro.net.simulator.EventSimulator`
and :class:`~repro.net.network.Network`, so a 10k-switch fabric is never
one giant event heap.  Regions are joined by *boundary links*: inside the
source region the link terminates at a :class:`RegionGateway` node that
stands in for the remote switch, and the gateway forwards arriving
packets through the :class:`InterRegionMailbox`.

Correctness rests on the classic conservative-parallel-DES argument:

- every boundary link carries ``latency_s`` >= the lockstep epoch
  ``epoch_s`` (the *lookahead*), so a packet posted during epoch
  ``[t, t+e)`` is delivered at ``>= t+e`` — never into a destination
  region's past;
- regions advance one epoch at a time in sorted-region-id order, and the
  mailbox flushes between epochs in ``(deliver_at, src_region, seq)``
  order, so delivery is a pure function of the schedule and the whole
  world stays bit-reproducible for any region count.

With one region and no boundary links, :meth:`RegionalWorld.run` is a
plain pass-through to the single simulator — the regions=1 world is the
*same* world, byte for byte, as the pre-region flat one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.dataplane.packet import Packet
from repro.net.network import Network
from repro.net.simulator import EventSimulator

#: Default boundary-link propagation delay (inter-region / WAN-ish, well
#: above the 5 µs intra-region link latency).  It doubles as the default
#: lockstep epoch, so the lookahead invariant holds by construction.
DEFAULT_BOUNDARY_LATENCY_S = 500e-6


@dataclass(frozen=True)
class BoundaryLink:
    """One inter-region link, described from both ends."""

    region_a: str
    switch_a: str
    port_a: int
    region_b: str
    switch_b: str
    port_b: int
    latency_s: float


@dataclass
class Region:
    """One partition of the fleet: its own simulator, network, switches."""

    id: str
    index: int
    sim: EventSimulator
    net: Network
    switches: List[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.net.sim is not self.sim:
            raise ValueError(f"region {self.id!r}: network is bound to a "
                             f"different simulator")


class RegionGateway:
    """In-region stand-in for a switch that lives in another region.

    It satisfies the network node interface (``receive``); anything the
    fabric delivers to it is posted to the world mailbox stamped
    ``deliver_at = now + latency_s``.  Gateways are *not*
    ``SwitchNode``s, so ``Network.neighbor_ports`` (and therefore KMP
    port keying) never sees boundary ports — inter-region links are
    inter-domain links and carry no port keys (see DESIGN.md).
    """

    def __init__(self, world: "RegionalWorld", name: str, src_region: Region,
                 dst_region: str, dst_switch: str, dst_port: int,
                 latency_s: float):
        self.world = world
        self.name = name
        self.src_region = src_region
        self.dst_region = dst_region
        self.dst_switch = dst_switch
        self.dst_port = dst_port
        self.latency_s = latency_s
        self.forwarded = 0

    def receive(self, packet: Packet, ingress_port: int) -> None:
        self.forwarded += 1
        self.world.mailbox.post(
            src_index=self.src_region.index,
            dst_region=self.dst_region,
            dst_switch=self.dst_switch,
            dst_port=self.dst_port,
            packet=packet,
            deliver_at=self.src_region.sim.now + self.latency_s,
        )


class InterRegionMailbox:
    """Deterministic cross-region message queue.

    Posts accumulate during an epoch; :meth:`flush` sorts them by
    ``(deliver_at, src_region_index, seq)`` and schedules each into the
    destination region's simulator.  The sort (plus each simulator's own
    FIFO tie-break) makes delivery order independent of which region ran
    first inside the epoch.
    """

    def __init__(self) -> None:
        self._seq = itertools.count()
        self._pending: List[Tuple[float, int, int, str, str, int, Packet]] = []
        self.posted = 0
        self.delivered = 0
        #: Deepest the pending queue has been at any flush.
        self.high_water = 0

    def post(self, src_index: int, dst_region: str, dst_switch: str,
             dst_port: int, packet: Packet, deliver_at: float) -> None:
        self.posted += 1
        self._pending.append((deliver_at, src_index, next(self._seq),
                              dst_region, dst_switch, dst_port, packet))

    def flush(self, regions: Dict[str, Region]) -> int:
        if len(self._pending) > self.high_water:
            self.high_water = len(self._pending)
        batch = sorted(self._pending, key=lambda e: e[:3])
        self._pending.clear()
        for deliver_at, _src, _seq, rid, switch, port, packet in batch:
            region = regions[rid]
            if deliver_at < region.sim.now:
                raise RuntimeError(
                    f"lookahead violation: message for {switch!r} in region "
                    f"{rid!r} due at {deliver_at} but the region is already "
                    f"at {region.sim.now} — boundary latency must be >= the "
                    f"lockstep epoch")
            node = region.net.nodes[switch]
            region.sim.schedule_at(deliver_at, node.receive, packet, port)
        self.delivered += len(batch)
        return len(batch)

    def pending(self) -> int:
        return len(self._pending)


class RegionalWorld:
    """N regions advancing in bounded-lag lockstep.

    ``run(until)`` slices virtual time into epochs of ``epoch_s`` (default:
    the minimum boundary-link latency), runs every region — sorted by
    region id — up to the epoch boundary, then flushes the mailbox.
    ``on_epoch`` hooks fire at each barrier with the barrier time; the
    hierarchical KMP uses them to check cross-region invariants at
    points where all regions agree on the clock.
    """

    def __init__(self, regions: List[Region],
                 epoch_s: Optional[float] = None):
        if not regions:
            raise ValueError("need at least one region")
        ids = [r.id for r in regions]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate region ids: {ids}")
        self.regions: List[Region] = sorted(regions, key=lambda r: r.id)
        self.by_id: Dict[str, Region] = {r.id: r for r in self.regions}
        self.mailbox = InterRegionMailbox()
        self.boundary_links: List[BoundaryLink] = []
        self.on_epoch: List[Callable[[float], None]] = []
        self.epochs = 0
        self._explicit_epoch_s = epoch_s
        self._gateway_count = 0
        now = {r.id: r.sim.now for r in self.regions}
        if len(set(now.values())) > 1:
            raise ValueError(f"regions disagree on the clock: {now}")

    # -- construction ------------------------------------------------------

    def add_boundary_link(self, region_a: str, switch_a: str, port_a: int,
                          region_b: str, switch_b: str, port_b: int,
                          latency_s: float = DEFAULT_BOUNDARY_LATENCY_S,
                          bandwidth_bps: float = 10e9) -> BoundaryLink:
        """Join two switches in different regions through gateways."""
        if region_a == region_b:
            raise ValueError("boundary link endpoints must differ in region")
        if latency_s <= 0:
            raise ValueError("boundary latency must be positive")
        if (self._explicit_epoch_s is not None
                and latency_s < self._explicit_epoch_s):
            raise ValueError(
                f"boundary latency {latency_s} < lockstep epoch "
                f"{self._explicit_epoch_s}: the lookahead invariant needs "
                f"latency >= epoch")
        link = BoundaryLink(region_a, switch_a, port_a,
                            region_b, switch_b, port_b, latency_s)
        for src_id, src_switch, src_port, dst_id, dst_switch, dst_port in (
                (region_a, switch_a, port_a, region_b, switch_b, port_b),
                (region_b, switch_b, port_b, region_a, switch_a, port_a)):
            src = self.by_id[src_id]
            gw_name = f"{src_id}.gw{self._gateway_count}"
            self._gateway_count += 1
            gateway = RegionGateway(self, gw_name, src, dst_id, dst_switch,
                                    dst_port, latency_s)
            src.net.add_node(gw_name, gateway)
            # The in-region hop to the gateway is free; the *mailbox*
            # charges the full boundary latency, so the delivery time of a
            # packet posted during epoch [t, t+e) is >= t + latency >= t+e.
            src.net.connect(src_switch, src_port, gw_name, 1,
                            latency_s=0.0, bandwidth_bps=bandwidth_bps)
        self.boundary_links.append(link)
        return link

    # -- time --------------------------------------------------------------

    @property
    def epoch_s(self) -> float:
        if self._explicit_epoch_s is not None:
            return self._explicit_epoch_s
        if self.boundary_links:
            return min(link.latency_s for link in self.boundary_links)
        return DEFAULT_BOUNDARY_LATENCY_S

    @property
    def now(self) -> float:
        return self.regions[0].sim.now

    def region(self, region_id: str) -> Region:
        return self.by_id[region_id]

    # -- execution ---------------------------------------------------------

    def run(self, until: float,
            max_events_per_epoch: int = 10_000_000) -> int:
        """Advance every region to ``until`` (absolute virtual time)."""
        if len(self.regions) == 1 and not self.boundary_links:
            # Single region: the lockstep machinery is pure overhead and
            # the flat world must stay byte-identical — pass through.
            return self.regions[0].sim.run(until=until,
                                           max_events=max_events_per_epoch)
        executed = 0
        epoch = self.epoch_s
        while self.now < until - 1e-15:
            barrier = min(self.now + epoch, until)
            for region in self.regions:
                executed += region.sim.run(until=barrier,
                                           max_events=max_events_per_epoch)
            self.mailbox.flush(self.by_id)
            self.epochs += 1
            for hook in list(self.on_epoch):
                hook(barrier)
        return executed

    def run_until(self, condition: Callable[[], bool], deadline: float,
                  max_events_per_epoch: int = 10_000_000) -> bool:
        """Run epoch by epoch until ``condition()`` or the deadline.

        Returns whether the condition held when the loop stopped.  The
        condition is only sampled at epoch barriers (where all regions
        agree on the clock), so the check itself cannot perturb the
        schedule.
        """
        if condition():
            return True
        epoch = self.epoch_s
        while self.now < deadline - 1e-15:
            self.run(until=min(self.now + epoch, deadline),
                     max_events_per_epoch=max_events_per_epoch)
            if condition():
                return True
        return condition()

    def pending(self) -> int:
        """Events queued across all regions plus unflushed mailbox posts."""
        return (sum(r.sim.pending() for r in self.regions)
                + self.mailbox.pending())

    def stats(self) -> Dict[str, object]:
        return {
            "regions": len(self.regions),
            "boundary_links": len(self.boundary_links),
            "epochs": self.epochs,
            "epoch_s": self.epoch_s,
            "mailbox_posted": self.mailbox.posted,
            "mailbox_delivered": self.mailbox.delivered,
            "mailbox_high_water": self.mailbox.high_water,
            "events_executed": sum(r.sim.events_executed
                                   for r in self.regions),
        }


__all__ = [
    "DEFAULT_BOUNDARY_LATENCY_S",
    "BoundaryLink",
    "InterRegionMailbox",
    "Region",
    "RegionGateway",
    "RegionalWorld",
]
