"""NetWarden mini-model: covert-channel mitigation (Table I).

NetWarden [5] has the data plane report inter-packet delays (IPDs) of
suspicious connections to the controller, which classifies timing covert
channels (abnormally regular IPDs -> low variance) and writes block
decisions back into the data plane.  Table I's attack alters the DP -> C
report so a covert connection's IPDs look normal and it evades detection.

Scenario: 10 benign connections (noisy IPDs) and 2 covert connections
(metronome-regular IPDs).  The DP aggregates per-connection IPD mean and
variance in registers; the controller reads them and blocks connections
whose variance falls below a threshold.  The adversary inflates the
reported variance for the covert connections.  With P4Auth, the tampered
report fails verification and the controller fails closed: a connection
whose statistics cannot be verified is blocked pending investigation.

Metric: covert-connection detection rate.
"""

from __future__ import annotations

from typing import Dict, List

from repro.attacks.control_plane import RegisterResponseTamperer
from repro.crypto.prng import XorShiftPrng
from repro.dataplane.headers import HeaderType
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch
from repro.net.network import Network
from repro.net.simulator import EventSimulator
from repro.systems.tableone import TableIScenarioResult, build_deployment, check_mode

NW_PKT_HEADER = HeaderType("nw_pkt", [
    ("conn_id", 16),
    ("seq", 32),
])

NUM_CONNECTIONS = 12
COVERT_CONNECTIONS = (3, 8)
#: Variance (us^2) below which a connection is classified as covert.
VARIANCE_THRESHOLD = 400


class NetWardenDataplane:
    """Per-connection IPD statistics + block bitmap."""

    def __init__(self, switch: DataplaneSwitch):
        self.switch = switch
        registers = switch.registers
        self.last_arrival = registers.define("nw_last_arrival_us", 64,
                                             NUM_CONNECTIONS)
        self.ipd_count = registers.define("nw_ipd_count", 32, NUM_CONNECTIONS)
        self.ipd_sum = registers.define("nw_ipd_sum", 64, NUM_CONNECTIONS)
        self.ipd_sq_sum = registers.define("nw_ipd_sq_sum", 64,
                                           NUM_CONNECTIONS)
        self.blocked = registers.define("nw_blocked", 8, NUM_CONNECTIONS)
        self.dropped_blocked = 0

    def install(self) -> "NetWardenDataplane":
        self.switch.pipeline.add_stage("netwarden", self._stage)
        return self

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("nw_pkt"):
            return
        conn = ctx.packet.get("nw_pkt")["conn_id"]
        if self.blocked.read(conn):
            self.dropped_blocked += 1
            ctx.drop("netwarden: connection blocked")
            return
        now_us = int(ctx.now * 1e6)
        last = self.last_arrival.read(conn)
        if last:
            ipd = now_us - last
            self.ipd_count.read_modify_write(conn, lambda v: v + 1)
            self.ipd_sum.read_modify_write(conn, lambda v: v + ipd)
            self.ipd_sq_sum.read_modify_write(conn, lambda v: v + ipd * ipd)
        self.last_arrival.write(conn, now_us)
        ctx.emit(2)


def ipd_variance(count: int, total: int, sq_sum: int) -> float:
    """A connection's inter-packet-delay variance from its three register
    sums, as the controller's classifier computes it; ``inf`` under two
    samples."""
    if count < 2:
        return float("inf")
    mean = total / count
    return sq_sum / count - mean * mean


#: Packets each connection sends, and the seed of the benign jitter.
PACKETS_PER_CONN = 40
TRAFFIC_SEED = 9


def run_scenario(mode: str, *, telemetry=None) -> TableIScenarioResult:
    """Table I row "IDS-IPS / NetWarden": evasion of detection."""
    check_mode(mode)
    sim = EventSimulator(telemetry=telemetry)
    net = Network(sim)
    switch = DataplaneSwitch("s1", num_ports=2)
    net.add_switch(switch)
    netwarden = NetWardenDataplane(switch).install()
    client, dataplane = build_deployment(mode, switch, net, sim)
    base = sim.now
    node = net.nodes["s1"]
    prng = XorShiftPrng(TRAFFIC_SEED)

    if mode in ("attack", "p4auth"):
        sq_sum_id = switch.registers.id_of("nw_ipd_sq_sum")
        # Inflate the covert connections' reported squared-IPD sums so the
        # computed variance looks benign.
        adversary = RegisterResponseTamperer(
            targets=[(sq_sum_id, conn) for conn in COVERT_CONNECTIONS],
            transform=lambda value: value * 3,
        )
        adversary.attach(net.control_channels["s1"])

    # Traffic: benign connections jitter (+/- 50%), covert ones tick
    # every 1000 us exactly.
    from repro.dataplane.packet import Packet
    for conn in range(NUM_CONNECTIONS):
        at = 0.001 * (conn + 1)
        for seq in range(PACKETS_PER_CONN):
            if conn in COVERT_CONNECTIONS:
                at += 0.001
            else:
                at += 0.001 * (0.5 + prng.uniform())
            packet = Packet()
            packet.push("nw_pkt", NW_PKT_HEADER.instantiate(conn_id=conn,
                                                            seq=seq))
            sim.schedule_at(base + at, node.receive, packet, 1)

    # Controller sweep after the traffic: read stats, classify, block.
    stats: Dict[int, Dict[str, int]] = {}
    unverified: List[int] = []

    def sweep() -> None:
        def reader(conn: int, field: str):
            def callback(ok: bool, value: int) -> None:
                if ok:
                    stats.setdefault(conn, {})[field] = value
            return callback

        for conn in range(NUM_CONNECTIONS):
            client.read_register("s1", "nw_ipd_count", conn,
                                 reader(conn, "count"))
            client.read_register("s1", "nw_ipd_sum", conn,
                                 reader(conn, "sum"))
            client.read_register("s1", "nw_ipd_sq_sum", conn,
                                 reader(conn, "sq_sum"))

    def classify() -> None:
        for conn in range(NUM_CONNECTIONS):
            fields = stats.get(conn, {})
            if len(fields) < 3:
                # A report failed verification: fail closed (P4Auth path).
                unverified.append(conn)
                client.write_register("s1", "nw_blocked", conn, 1)
                continue
            if ipd_variance(fields["count"], fields["sum"],
                            fields["sq_sum"]) < VARIANCE_THRESHOLD:
                client.write_register("s1", "nw_blocked", conn, 1)

    end_of_traffic = base + 0.001 * (NUM_CONNECTIONS + 2) \
        + PACKETS_PER_CONN * 0.002
    sim.schedule_at(end_of_traffic, sweep)
    sim.schedule_at(end_of_traffic + 1.0, classify)
    sim.run(until=end_of_traffic + 3.0)

    blocked = [conn for conn in range(NUM_CONNECTIONS)
               if netwarden.blocked.read(conn)]
    covert_blocked = sum(1 for conn in COVERT_CONNECTIONS if conn in blocked)
    benign_blocked = [conn for conn in blocked
                      if conn not in COVERT_CONNECTIONS]
    detection_rate = covert_blocked / len(COVERT_CONNECTIONS)
    detected = mode == "p4auth" and client.stats.tampered_responses > 0
    return TableIScenarioResult(
        system="netwarden",
        mode=mode,
        impact_metric="covert_detection_rate",
        impact_value=detection_rate,
        state_poisoned=(mode != "baseline" and detection_rate < 1.0),
        detected=detected,
        notes=(f"blocked={blocked} unverified={unverified} "
               f"benign_blocked={benign_blocked}"),
    )


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the NetWarden IPD-statistics stage."""
    from repro.verify.ir import (
        BinOp, Const, EmitPacket, FieldRef, MetaRef, Program, RegRead,
        RegReadModifyWrite, RegWrite, RequireValid, SetMeta, StageDecl,
    )

    switch = DataplaneSwitch("netwarden-verify", num_ports=4)
    NetWardenDataplane(switch).install()
    return Program.from_switch("netwarden", switch, [StageDecl("netwarden", (
        RequireValid("nw_pkt"),
        SetMeta("conn", FieldRef("nw_pkt", "conn_id")),
        SetMeta("now_us", Const(0, 64)),
        RegRead("nw_blocked", MetaRef("conn"), "blocked"),
        RegRead("nw_last_arrival_us", MetaRef("conn"), "last"),
        SetMeta("ipd", BinOp("sub", (MetaRef("now_us"), MetaRef("last")))),
        RegReadModifyWrite("nw_ipd_count", MetaRef("conn"), Const(1),
                           "ipd_n"),
        RegReadModifyWrite("nw_ipd_sum", MetaRef("conn"), MetaRef("ipd"),
                           "ipd_total"),
        RegReadModifyWrite("nw_ipd_sq_sum", MetaRef("conn"),
                           MetaRef("ipd"), "ipd_sq_total"),
        RegWrite("nw_last_arrival_us", MetaRef("conn"), MetaRef("now_us")),
        EmitPacket(headers=("nw_pkt",)),
    ))], headers=[NW_PKT_HEADER])
