"""Baseline destination-based L3 port forwarding (paper §IX-B).

The performance evaluation's base program: "destination-based layer-3
port forwarding with two match-action tables and one register".  We model
it faithfully: an LPM route table picks the egress port, an exact-match
rewrite table models L2 adjacency resolution, and a register counts
per-index packets.
"""

from __future__ import annotations

from typing import Optional

from repro.dataplane.headers import HeaderType
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch
from repro.dataplane.tables import MatchActionTable, MatchKind, TableEntry

#: Minimal IPv4-ish header for the forwarding path.
IPV4_HEADER = HeaderType("ipv4", [
    ("src", 32),
    ("dst", 32),
    ("ttl", 8),
    ("proto", 8),
    ("flow_id", 16),
])


class L3ForwardingDataplane:
    """The two-table, one-register L3 forwarder."""

    def __init__(self, switch: DataplaneSwitch, stats_size: int = 256):
        self.switch = switch
        self.route_table = MatchActionTable(
            "ipv4_lpm", [("dst", MatchKind.LPM, 32)], max_entries=12288
        )
        # Keyed on the 48-bit next hop §IX-B's adjacency table resolves;
        # this model's next-hop id is the egress port.
        self.rewrite_table = MatchActionTable(
            "l2_rewrite", [("next_hop", MatchKind.EXACT, 48)],
            max_entries=16384
        )
        switch.add_table(self.route_table)
        switch.add_table(self.rewrite_table)
        self.stats = switch.registers.define("flow_stats", 32, stats_size)
        self._egress: Optional[int] = None
        self.route_table.register_action("set_egress", self._set_egress)
        self.route_table.register_action("drop", self._route_drop)
        self.route_table.set_default("drop")
        self.rewrite_table.register_action("rewrite", lambda **_: None)
        self.rewrite_table.set_default("rewrite")
        self._dropped = False

    def install(self) -> "L3ForwardingDataplane":
        self.switch.pipeline.add_stage("l3fwd", self._stage)
        return self

    # -- control-plane configuration -----------------------------------------

    def add_route(self, prefix: int, prefix_len: int, egress_port: int) -> None:
        """Install an LPM route: dst/prefix_len -> egress_port."""
        self.route_table.insert(TableEntry(
            key=((prefix, prefix_len),), action="set_egress",
            params={"port": egress_port},
        ))

    # -- actions ---------------------------------------------------------------

    def _set_egress(self, port: int) -> None:
        self._egress = port
        self._dropped = False

    def _route_drop(self) -> None:
        self._egress = None
        self._dropped = True

    # -- pipeline stage ----------------------------------------------------------

    def _stage(self, ctx: PipelineContext) -> None:
        packet = ctx.packet
        if not packet.has("ipv4"):
            return
        ipv4 = packet.get("ipv4")
        if ipv4["ttl"] == 0:
            ctx.drop("ttl exceeded")
            return
        ipv4["ttl"] -= 1
        self._egress = None
        self.route_table.lookup(ipv4["dst"])
        if self._egress is None:
            ctx.drop("no route")
            return
        self.rewrite_table.lookup(self._egress)
        self.stats.read_modify_write(
            ipv4["flow_id"] % self.stats.size, lambda v: v + 1
        )
        ctx.emit(self._egress)


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify and Table II)
# ---------------------------------------------------------------------------

def verify_program(num_ports: int = 4) -> "object":
    """The forwarder at the Table II sizing point (§IX-B), as verify IR.

    Registers and tables are read off the installed switch; stated here
    is what the simulator does not model — 8 192 stats cells (the closure
    default is 256), the tables' action-data widths (egress port +
    next-hop id; dst MAC + port) and the PHV of the Ethernet header, the
    IPv4 options and the intrinsic metadata the closure never parses.
    """
    from repro.verify.ir import (
        ApplyTable, BinOp, Const, EmitPacket, FieldRef, HeaderDecl,
        MetaRef, Program, RegReadModifyWrite, RequireValid, SetField,
        SetMeta, StageDecl,
    )

    switch = DataplaneSwitch("l3fwd-verify", num_ports=num_ports)
    L3ForwardingDataplane(switch, stats_size=8192).install()
    return Program.from_switch("l3fwd", switch, [StageDecl("l3fwd", (
        RequireValid("ipv4"),
        SetField("ipv4", "ttl", BinOp("sub", (
            FieldRef("ipv4", "ttl"), Const(1, 8)))),
        SetMeta("egress_port", Const(0, 16)),
        ApplyTable("ipv4_lpm", (FieldRef("ipv4", "dst"),)),
        ApplyTable("l2_rewrite", (MetaRef("egress_port"),)),
        RegReadModifyWrite("flow_stats", FieldRef("ipv4", "flow_id"),
                           Const(1), "flow_count"),
        EmitPacket(headers=("ipv4",)),
    ))], headers=[
        HeaderDecl("ethernet", (("dst", 48), ("src", 48), ("etherType", 16))),
        IPV4_HEADER,
        HeaderDecl("ipv4_options", (("options", 64),)),
        HeaderDecl("intrinsic_metadata", (("data", 480),)),
    ], action_bits={"ipv4_lpm": 64, "l2_rewrite": 80})
