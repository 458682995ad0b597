"""SilkRoad mini-model: stateful L4 load balancing (Table I).

SilkRoad [4] pins connections to DIPs in a connection table; during a DIP
pool update, connections that arrived mid-update are tracked in a
*transit* bloom filter so they keep resolving to the old pool.  Once all
pending connections have been committed to the connection table, the
controller clears the transit table (a C-DP message).  Table I's attack
alters that message: here the adversary *injects a forged early clear*,
so pending connections lose their old-pool pinning mid-handshake and get
load-balanced to the wrong DIP (the paper's "wrong VIP during LB").

Metric: fraction of pending connections broken (switched DIP mid-setup).
"""

from __future__ import annotations

from typing import Dict

from repro.attacks.base import forged_write, inject_cpu
from repro.dataplane.headers import HeaderType
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.sketches import BloomFilter
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.runtime.plain import build_plain_request
from repro.core.constants import RegOpType
from repro.systems.tableone import TableIScenarioResult, build_deployment, check_mode

SILK_CONN_HEADER = HeaderType("silk_conn", [
    ("flow_id", 32),
    ("syn", 8),
])

OLD_DIP = 10
NEW_DIP = 20


class SilkRoadDataplane:
    """VIP -> DIP selection with connection pinning and a transit table."""

    def __init__(self, switch: DataplaneSwitch):
        self.switch = switch
        registers = switch.registers
        #: 0 = old pool, 1 = new pool.
        self.pool_version = registers.define("silk_pool_version", 8, 1)
        #: Written by the controller to trigger a transit-table clear.
        self.clear_trigger = registers.define("silk_clear_trigger", 8, 1)
        self.transit = BloomFilter(registers, "silk_transit", bits=2048)
        #: Connection table: flow -> pinned DIP (exact-match semantics).
        self.connections: Dict[int, int] = {}
        self.selections: Dict[int, int] = {}  # flow -> first DIP chosen
        self.broken_flows = set()

    def install(self) -> "SilkRoadDataplane":
        self.switch.pipeline.add_stage("silkroad", self._stage)
        return self

    def _current_dip(self) -> int:
        return NEW_DIP if self.pool_version.read(0) else OLD_DIP

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("silk_conn"):
            return
        # Controller-triggered transit clear (the attacked message).
        if self.clear_trigger.read(0):
            self.transit.clear()
            self.clear_trigger.write(0, 0)
        conn = ctx.packet.get("silk_conn")
        flow = conn["flow_id"]
        if flow in self.connections:
            dip = self.connections[flow]
        elif flow in self.transit:
            # Mid-update connection: keep resolving to the old pool until
            # the controller commits it.
            dip = OLD_DIP
        else:
            dip = self._current_dip()
            if conn["syn"]:
                self.connections[flow] = dip
        first = self.selections.setdefault(flow, dip)
        if dip != first:
            self.broken_flows.add(flow)
        ctx.emit(2)

    def begin_migration(self) -> None:
        """DP-side of a pool update: new version + track pending flows."""
        self.pool_version.write(0, 1)

    def note_pending(self, flow_id: int) -> None:
        """A connection that arrived mid-update enters the transit table."""
        self.transit.insert(flow_id)


def run_scenario(mode: str, pending_flows: int = 40,
                 packets_per_flow: int = 5, *,
                 telemetry=None) -> TableIScenarioResult:
    """Table I row "LB / SilkRoad": wrong DIP during load balancing."""
    check_mode(mode)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    silk = SilkRoadDataplane(switch).install()
    client, dataplane = build_deployment(mode, switch, net, sim)
    base = sim.now
    node = net.nodes["s1"]

    # Migration begins; pending connections arrive and are tracked.
    silk.begin_migration()
    for flow in range(pending_flows):
        silk.note_pending(flow)

    from repro.dataplane.packet import Packet

    def send(flow: int, seq: int, at: float) -> None:
        packet = Packet()
        packet.push("silk_conn", SILK_CONN_HEADER.instantiate(
            flow_id=flow, syn=1 if seq == 0 else 0))
        sim.schedule_at(base + at, node.receive, packet, 1)

    # Each pending flow sends its handshake packets over ~2 seconds.
    for flow in range(pending_flows):
        for seq in range(packets_per_flow):
            send(flow, seq, 0.01 + flow * 0.01 + seq * 0.4)

    # The adversary injects a forged "clear the transit table" at 0.2 s —
    # long before the legitimate clear at 3 s.
    if mode in ("attack", "p4auth"):
        reg_id = switch.registers.id_of("silk_clear_trigger")
        if mode == "attack":
            forged = build_plain_request(RegOpType.WRITE_REQ, reg_id, 0, 1,
                                         seq_num=0xFFFF)
        else:  # no key: the digest is a guess
            forged = forged_write(reg_id, 0, 1, seq_num=0xFFFF,
                                  digest=0xDEADBEEF)
        inject_cpu(net, "s1", forged, 0.2)

    # The legitimate clear, after all pending connections committed.
    def commit_and_clear() -> None:
        for flow in range(pending_flows):
            silk.connections.setdefault(flow, OLD_DIP)
        client.write_register("s1", "silk_clear_trigger", 0, 1)

    sim.schedule(3.0, commit_and_clear)
    sim.run(until=base + 5.0)

    broken_fraction = len(silk.broken_flows) / max(1, pending_flows)
    detected = False
    if mode == "p4auth":
        detected = (dataplane.stats.digest_fail_cdp > 0
                    or len(client.alerts) > 0)
    return TableIScenarioResult(
        system="silkroad",
        mode=mode,
        impact_metric="broken_connection_fraction",
        impact_value=broken_fraction,
        state_poisoned=len(silk.broken_flows) > 0,
        detected=detected,
        notes=f"broken={len(silk.broken_flows)}/{pending_flows}",
    )


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the SilkRoad stage."""
    from repro.verify.ir import (
        Const, EmitPacket, FieldRef, HashDecl, HashDigest, MetaRef,
        Program, RegRead, RegWrite, RequireValid, StageDecl,
    )

    switch = DataplaneSwitch("silkroad-verify", num_ports=4)
    SilkRoadDataplane(switch).install()
    return Program.from_switch("silkroad", switch, [StageDecl("silkroad", (
        RequireValid("silk_conn"),
        RegRead("silk_clear_trigger", Const(0), "clear"),
        RegWrite("silk_clear_trigger", Const(0), Const(0, 8)),
        RegRead("silk_pool_version", Const(0), "pool_ver"),
        HashDigest("bloom_idx", (FieldRef("silk_conn", "flow_id"),),
                   keyed=False, extern="bloom"),
        RegRead("silk_transit", MetaRef("bloom_idx"), "in_transit"),
        EmitPacket(headers=("silk_conn",)),
    ))], headers=[SILK_CONN_HEADER], hashes=[HashDecl("silk_bloom_hash", 2)])
