"""Blink mini-model: fast reroute with per-prefix next-hop lists (Table I).

Blink [2] detects remote failures entirely in the data plane (from TCP
retransmission signatures) and fails over to a backup next hop; the
controller later refines the per-prefix next-hop registers.  The Table I
attack alters that C-DP update so the "refinement" points traffic back at
the dead port, re-poisoning the fast-reroute decision the data plane had
already fixed.

Scenario: traffic flows to prefix 0 via port 2; port 2 dies; the DP's
failure detector swaps to the backup (port 3); the controller then writes
its computed best next hop (also port 3).  The adversary rewrites that
write's value to the dead port 2.  Metric: post-failure delivery rate.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.attacks.control_plane import RegisterRequestTamperer
from repro.dataplane.headers import HeaderType
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.systems.tableone import TableIScenarioResult, build_deployment, check_mode

BLINK_DATA_HEADER = HeaderType("blink_data", [
    ("prefix_id", 16),
    ("seq", 32),
])

#: Consecutive losses on the active port before the DP fails over.
FAILOVER_THRESHOLD = 20


class BlinkDataplane:
    """Per-prefix active/backup next hops with in-DP failover."""

    def __init__(self, switch: DataplaneSwitch, num_prefixes: int = 16):
        self.switch = switch
        registers = switch.registers
        self.active_nh = registers.define("blink_active_nh", 8, num_prefixes)
        self.backup_nh = registers.define("blink_backup_nh", 8, num_prefixes)
        self.loss_streak = registers.define("blink_loss_streak", 16,
                                            num_prefixes)
        #: Ports currently black-holing traffic (the modeled remote failure).
        self.dead_ports: Set[int] = set()
        self.delivered = 0
        self.lost = 0
        self.failovers = 0

    def install(self) -> "BlinkDataplane":
        self.switch.pipeline.add_stage("blink", self._stage)
        return self

    def set_prefix(self, prefix: int, active: int, backup: int) -> None:
        self.active_nh.write(prefix, active)
        self.backup_nh.write(prefix, backup)

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("blink_data"):
            return
        prefix = ctx.packet.get("blink_data")["prefix_id"]
        port = self.active_nh.read(prefix)
        if port in self.dead_ports:
            self.lost += 1
            streak = self.loss_streak.read_modify_write(prefix,
                                                        lambda v: v + 1)
            if streak >= FAILOVER_THRESHOLD:
                # In-data-plane fast reroute: swap to the backup.
                backup = self.backup_nh.read(prefix)
                self.backup_nh.write(prefix, port)
                self.active_nh.write(prefix, backup)
                self.loss_streak.write(prefix, 0)
                self.failovers += 1
            ctx.drop("blackholed: active next hop is dead")
            return
        self.loss_streak.write(prefix, 0)
        self.delivered += 1
        ctx.emit(port)


def run_scenario(mode: str, duration_s: float = 10.0,
                 packet_period_s: float = 0.01,
                 fail_at_s: float = 2.0,
                 controller_update_at_s: float = 4.0, *,
                 telemetry=None) -> TableIScenarioResult:
    """Table I row "FRR / Blink": poisoning of fast rerouting decisions."""
    check_mode(mode)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=4)
    net.add_switch(switch)
    blink = BlinkDataplane(switch).install()
    blink.set_prefix(0, active=2, backup=3)
    client, _dataplane = build_deployment(mode, switch, net, sim)
    base = sim.now

    adversary: Optional[RegisterRequestTamperer] = None
    if mode in ("attack", "p4auth"):
        adversary = RegisterRequestTamperer(
            reg_id=switch.registers.id_of("blink_active_nh"),
            transform=lambda _value: 2,  # point back at the dead port
        )
        adversary.attach(net.control_channels["s1"])

    sim.schedule(fail_at_s, blink.dead_ports.add, 2)

    # The controller's refinement write (best next hop for prefix 0 is
    # port 3), re-asserted every second as controllers do when syncing
    # state.  Each tampered re-assertion re-poisons the fast-reroute
    # decision until the DP's failure detector swaps away again.
    def refine() -> None:
        if sim.now - base >= duration_s:
            return
        client.write_register("s1", "blink_active_nh", 0, 3)
        sim.schedule(1.0, refine)

    sim.schedule(controller_update_at_s, refine)

    # Steady packet stream toward prefix 0.
    node = net.nodes["s1"]
    count = int(duration_s / packet_period_s)
    from repro.dataplane.packet import Packet
    for index in range(count):
        packet = Packet()
        packet.push("blink_data", BLINK_DATA_HEADER.instantiate(
            prefix_id=0, seq=index))
        sim.schedule_at(base + index * packet_period_s, node.receive,
                        packet, 1)
    sim.run(until=base + duration_s)

    # Delivery rate over the post-failure window.
    post_failure_packets = int((duration_s - fail_at_s) / packet_period_s)
    post_failure_delivered = blink.delivered - int(fail_at_s / packet_period_s)
    delivery = max(0.0, post_failure_delivered / post_failure_packets)
    poisoned = blink.active_nh.read(0) == 2 or blink.failovers > 1
    detected = (mode == "p4auth"
                and (client.stats.nacks_received > 0
                     or client.stats.tampered_responses > 0))
    return TableIScenarioResult(
        system="blink",
        mode=mode,
        impact_metric="post_failure_delivery_rate",
        impact_value=delivery,
        state_poisoned=poisoned,
        detected=detected,
        notes=f"failovers={blink.failovers} lost={blink.lost}",
    )


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the Blink failover stage (reads precede writes)."""
    from repro.verify.ir import (
        Const, EmitPacket, FieldRef, MetaRef, Program, RegRead,
        RegReadModifyWrite, RegWrite, RequireValid, SetMeta, StageDecl,
    )

    switch = DataplaneSwitch("blink-verify", num_ports=4)
    BlinkDataplane(switch).install()
    return Program.from_switch("blink", switch, [StageDecl("blink", (
        RequireValid("blink_data"),
        SetMeta("prefix", FieldRef("blink_data", "prefix_id")),
        RegRead("blink_active_nh", MetaRef("prefix"), "active"),
        RegRead("blink_backup_nh", MetaRef("prefix"), "backup"),
        RegReadModifyWrite("blink_loss_streak", MetaRef("prefix"),
                           Const(1), "streak"),
        RegWrite("blink_backup_nh", MetaRef("prefix"), MetaRef("active")),
        RegWrite("blink_active_nh", MetaRef("prefix"), MetaRef("backup")),
        EmitPacket(headers=("blink_data",)),
    ))], headers=[BLINK_DATA_HEADER])
