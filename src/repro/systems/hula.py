"""HULA: scalable load balancing using programmable data planes [1].

HULA's control loop runs entirely in the data plane: each destination ToR
periodically floods *probes*; every switch on a probe's path stamps it
with the maximum link utilization seen so far; receivers remember, per
destination, the least-utilized next hop (``best_hop``) and forward data
packets along it.  That makes probes exactly the DP-DP feedback messages
of the paper's threat model: an on-link MitM who rewrites ``path_util``
steers traffic at will (Fig 3).  With P4Auth, probes carry a per-link
digest and tampered ones are dropped at the first honest switch (Fig 17).

Implementation notes
--------------------
- Probe routing is configured per switch as ``probe_routes``: ingress
  port -> list of egress ports (the probe multicast tree).  When a probe
  is forwarded out of port q, its ``path_util`` is maxed with the
  utilization of the link it is about to cross *in the data direction* —
  which this switch measures as received data bytes on port q.  The
  receiving endpoint (S1) trusts the probe field as-is, which is exactly
  the attack surface of Fig 3: the last writer before S1 wins.
- Link utilization uses HULA's estimator: an exponentially decayed byte
  counter, ``U = U * (1 - dt/tau) + size`` per data packet, with
  ``util_pct = 100 * (U * 8 / tau) / capacity``.
- ``best_hop`` entries age out (``aging_s``): if no valid probe refreshed
  a destination via the current best hop, the next valid probe wins
  regardless of utilization.  This is also what re-routes traffic away
  from a compromised link once P4Auth starts dropping its probes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch

#: The HULA probe: destination ToR id, max path utilization (percent),
#: and a probe sequence id.
HULA_PROBE_HEADER = HeaderType("hula_probe", [
    ("dst_tor", 16),
    ("path_util", 32),
    ("probe_id", 32),
])

#: Data packets: destination ToR plus flow identity.
HULA_DATA_HEADER = HeaderType("hula_data", [
    ("dst_tor", 16),
    ("flow_id", 32),
    ("seq", 16),
])

#: Shared zero payload used to pad data packets to a realistic size.
_DATA_PAYLOAD = bytes(1400)


def make_probe(dst_tor: int, probe_id: int, path_util: int = 0) -> Packet:
    """A fresh HULA probe packet, as the destination ToR would originate."""
    packet = Packet()
    packet.push("hula_probe", HULA_PROBE_HEADER.instantiate(
        dst_tor=dst_tor, path_util=path_util, probe_id=probe_id))
    return packet


def make_data_packet(dst_tor: int, flow_id: int, seq: int = 0,
                     size_bytes: int = 1408) -> Packet:
    """A data packet addressed to a ToR (padded to ``size_bytes``)."""
    header_bytes = HULA_DATA_HEADER.byte_width
    pad = max(0, size_bytes - header_bytes)
    packet = Packet(payload=_DATA_PAYLOAD[:pad] if pad <= len(_DATA_PAYLOAD)
                    else bytes(pad))
    packet.push("hula_data", HULA_DATA_HEADER.instantiate(
        dst_tor=dst_tor, flow_id=flow_id & 0xFFFFFFFF, seq=seq & 0xFFFF))
    return packet


@dataclass
class HulaConfig:
    """Per-switch HULA configuration."""

    #: Probe multicast tree: ingress port -> egress ports.  An empty list
    #: terminates the probe at this switch (it is a path endpoint).
    probe_routes: Dict[int, List[int]] = field(default_factory=dict)
    #: Destinations directly attached here: dst_tor -> host-facing port.
    edge_delivery: Dict[int, int] = field(default_factory=dict)
    #: Fallback uplinks used when no best-hop entry is fresh.
    uplink_ports: List[int] = field(default_factory=list)
    #: best_hop entry lifetime.
    aging_s: float = 0.1
    #: Utilization estimator decay constant and the modeled link capacity.
    util_tau_s: float = 0.05
    capacity_bps: float = 100e6
    #: Number of ToR ids the registers are sized for.
    max_tors: int = 64


class HulaDataplane:
    """The HULA program fragment on one switch."""

    def __init__(self, switch: DataplaneSwitch, config: HulaConfig):
        self.switch = switch
        self.config = config
        registers = switch.registers
        size = config.max_tors
        self.best_hop = registers.define("hula_best_hop", 8, size)
        self.min_util = registers.define("hula_min_util", 32, size)
        # Timestamps in integer microseconds (registers hold unsigned ints).
        self.last_update = registers.define("hula_last_update", 64, size)
        # Utilization estimator state, per port (index = port number):
        # decayed received-byte counter + last-update timestamp (us).
        ports = switch.num_ports + 1
        self._rx_util = registers.define("hula_rx_util_bytes", 64, ports)
        self._rx_last = registers.define("hula_rx_last_us", 64, ports)
        #: Data packets transmitted per egress port (experiment readout).
        self.data_tx_per_port: Dict[int, int] = {}
        self.probes_processed = 0
        self.data_forwarded = 0
        self.data_dropped = 0
        self._fallback_rr = 0

    def install(self) -> "HulaDataplane":
        self.switch.pipeline.add_stage("hula", self._stage)
        return self

    # ------------------------------------------------------------------
    # link utilization estimator
    # ------------------------------------------------------------------

    def _decayed(self, port: int, now: float) -> int:
        """The counter after applying decay up to ``now`` (no write)."""
        tau_us = self.config.util_tau_s * 1e6
        dt_us = now * 1e6 - self._rx_last.read(port)
        if dt_us >= tau_us:
            return 0
        counter = self._rx_util.read(port)
        return int(counter * (1.0 - dt_us / tau_us))

    def _account_rx(self, port: int, size_bytes: int, now: float) -> None:
        """HULA estimator update: U = U * (1 - dt/tau) + size."""
        self._rx_util.write(port, self._decayed(port, now) + size_bytes)
        self._rx_last.write(port, int(now * 1e6))

    def port_util(self, port: int, now: float) -> int:
        """Data-direction utilization percent of the link on ``port``."""
        rate_bps = self._decayed(port, now) * 8.0 / self.config.util_tau_s
        return min(100, int(100.0 * rate_bps / self.config.capacity_bps))

    # ------------------------------------------------------------------
    # pipeline stage
    # ------------------------------------------------------------------

    def _stage(self, ctx: PipelineContext) -> None:
        # No ctx.stop(): later stages (e.g. P4Auth's egress signing) must
        # still see the emitted packets.
        if ctx.packet.has("hula_probe"):
            self._process_probe(ctx)
        elif ctx.packet.has("hula_data"):
            self._process_data(ctx)

    def _process_probe(self, ctx: PipelineContext) -> None:
        probe = ctx.packet.get("hula_probe")
        dst = probe["dst_tor"] % self.config.max_tors
        util = probe["path_util"]
        now_us = int(ctx.now * 1e6)
        self.probes_processed += 1

        last = self.last_update.read(dst)
        aged = (last == 0  # never updated
                or now_us - last > self.config.aging_s * 1e6)
        if (util < self.min_util.read(dst)
                or self.best_hop.read(dst) == ctx.ingress_port
                or aged):
            self.min_util.write(dst, util)
            self.best_hop.write(dst, ctx.ingress_port)
            # A zero timestamp means "never"; clamp genuine t=0 updates.
            self.last_update.write(dst, max(1, now_us))

        # Forward along the probe tree.  Each clone's path_util is maxed
        # with the data-direction utilization of the link it will cross
        # (measured here as received data bytes on the egress port).
        out_ports = self.config.probe_routes.get(ctx.ingress_port, [])
        for port in out_ports:
            clone = ctx.packet.copy()
            clone.get("hula_probe")["path_util"] = max(
                util, self.port_util(port, ctx.now))
            ctx.emit(port, clone)

    def _process_data(self, ctx: PipelineContext) -> None:
        data = ctx.packet.get("hula_data")
        dst = data["dst_tor"] % self.config.max_tors
        now_us = int(ctx.now * 1e6)
        # The bytes crossed the ingress link regardless of this packet's
        # fate, so the estimator accounts them up front.
        self._account_rx(ctx.ingress_port, ctx.packet.size_bytes, ctx.now)

        if data["dst_tor"] in self.config.edge_delivery:
            port = self.config.edge_delivery[data["dst_tor"]]
        else:
            port = self.best_hop.read(dst)
            fresh = (now_us - self.last_update.read(dst)
                     <= self.config.aging_s * 1e6)
            if port == 0 or not fresh:
                if not self.config.uplink_ports:
                    self.data_dropped += 1
                    ctx.drop("no fresh best hop and no fallback uplink")
                    return
                port = self.config.uplink_ports[
                    self._fallback_rr % len(self.config.uplink_ports)]
                self._fallback_rr += 1

        self.data_forwarded += 1
        self.data_tx_per_port[port] = self.data_tx_per_port.get(port, 0) + 1
        ctx.emit(port)


def fig3_hula_configs() -> Dict[str, HulaConfig]:
    """HULA configs for the Fig 3 topology built by
    :func:`repro.net.topology.hula_fig3_topology`.

    ToR ids: 1 = s1 (host h1), 5 = s5 (host h5).  Probes originate at h5,
    enter s5 on port 1, fan out to s2/s3/s4, and terminate at s1.
    """
    mid = HulaConfig(probe_routes={2: [1]}, uplink_ports=[1])
    return {
        "s1": HulaConfig(probe_routes={2: [], 3: [], 4: []},
                         edge_delivery={1: 1}, uplink_ports=[2, 3, 4]),
        "s2": mid,
        "s3": HulaConfig(probe_routes={2: [1]}, uplink_ports=[1]),
        "s4": HulaConfig(probe_routes={2: [1]}, uplink_ports=[1]),
        "s5": HulaConfig(probe_routes={1: [2, 3, 4]},
                         edge_delivery={5: 1}, uplink_ports=[2, 3, 4]),
    }


def leaf_spine_hula_configs(num_leaves: int,
                            num_spines: int) -> Dict[str, HulaConfig]:
    """HULA configs for :func:`repro.net.topology.leaf_spine`.

    ToR id of ``leafN`` is N.  Each leaf originates probes for its own
    ToR id from its host port (port 1) toward every spine; spines fan a
    probe arriving from one leaf out to all other leaves; leaves
    terminate probes for other ToRs (they only learn best hops).
    """
    configs: Dict[str, HulaConfig] = {}
    spine_uplinks = [2 + index for index in range(num_spines)]
    for leaf_index in range(1, num_leaves + 1):
        configs[f"leaf{leaf_index}"] = HulaConfig(
            probe_routes={1: list(spine_uplinks),
                          **{port: [] for port in spine_uplinks}},
            edge_delivery={leaf_index: 1},
            uplink_ports=list(spine_uplinks),
        )
    for spine_index in range(1, num_spines + 1):
        routes = {
            leaf_port: [other for other in range(1, num_leaves + 1)
                        if other != leaf_port]
            for leaf_port in range(1, num_leaves + 1)
        }
        configs[f"spine{spine_index}"] = HulaConfig(probe_routes=routes)
    return configs


def chain_hula_configs(num_switches: int) -> Dict[str, HulaConfig]:
    """HULA configs for :func:`repro.net.topology.linear_chain`: probes
    enter each switch on port 1 and leave on port 2 (used by Fig 21)."""
    configs = {}
    for index in range(1, num_switches + 1):
        configs[f"s{index}"] = HulaConfig(probe_routes={1: [2]},
                                          uplink_ports=[2])
    return configs


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the HULA stage (probe + data paths, reads first)."""
    from repro.verify.ir import (
        BinOp, Const, EmitPacket, FieldRef, MetaRef, Program, RegRead,
        RegWrite, RequireValid, SetField, SetMeta, StageDecl,
    )

    switch = DataplaneSwitch("hula-verify", num_ports=8)
    HulaDataplane(switch, HulaConfig()).install()
    # One stage = one stateful-ALU pass per array: all reads precede all
    # writes (the probe and data paths are exclusive branches in the
    # executable form; the linearization keeps hardware ordering honest).
    return Program.from_switch("hula", switch, [StageDecl("hula", (
        RequireValid("hula_probe"),
        RequireValid("hula_data"),
        SetMeta("ingress_port", Const(0, 16)),
        SetMeta("now_us", Const(0, 64)),
        SetMeta("dst", FieldRef("hula_probe", "dst_tor")),
        RegRead("hula_last_update", MetaRef("dst"), "last"),
        RegRead("hula_min_util", MetaRef("dst"), "min_util"),
        RegRead("hula_best_hop", MetaRef("dst"), "best"),
        RegRead("hula_rx_util_bytes", MetaRef("ingress_port"), "rx_bytes"),
        RegRead("hula_rx_last_us", MetaRef("ingress_port"), "rx_last"),
        RegWrite("hula_min_util", MetaRef("dst"),
                 FieldRef("hula_probe", "path_util")),
        RegWrite("hula_best_hop", MetaRef("dst"), MetaRef("ingress_port")),
        RegWrite("hula_last_update", MetaRef("dst"), MetaRef("now_us")),
        RegWrite("hula_rx_util_bytes", MetaRef("ingress_port"),
                 BinOp("add", (MetaRef("rx_bytes"), Const(1408)))),
        RegWrite("hula_rx_last_us", MetaRef("ingress_port"),
                 MetaRef("now_us")),
        SetField("hula_probe", "path_util", BinOp("max", (
            FieldRef("hula_probe", "path_util"), MetaRef("rx_bytes")))),
        EmitPacket(headers=("hula_probe", "hula_data")),
    ))], headers=[HULA_PROBE_HEADER, HULA_DATA_HEADER])
