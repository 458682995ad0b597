"""In-band network telemetry (INT) victim — the secINT scenario.

The paper repeatedly cites INT manipulation (secINT [28], INT [22]) as a
DP-DP threat: telemetry packets cross the fabric collecting per-hop
metadata entirely in the data plane, and an on-path MitM can rewrite an
upstream hop's records to hide congestion from the operator.

Model: an INT probe starts at a source switch and crosses a chain of
transit switches; each hop appends an 8-byte record (switch id, hop
latency, queue depth, egress port) to the packet payload — which is
exactly the "variable list of arguments" the P4Auth digest covers, so
with P4Auth every record is integrity-protected link by link.  The sink
delivers to a collector that reconstructs the path and its latency
profile.

Attack (Table I "Measurement" spirit): the MitM on one link rewrites the
latency/queue fields of the records accumulated so far, hiding an
upstream bottleneck.  Unprotected, the collector sees a healthy path;
with P4Auth, the first honest downstream switch drops the tampered probe
and alerts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch

INT_HEADER = HeaderType("int_probe", [
    ("flow_id", 32),
    ("hop_count", 8),
    ("max_hops", 8),
])

#: One per-hop record: switch id, hop latency (us), queue depth, port.
RECORD_FORMAT = "<HHHH"
RECORD_BYTES = struct.calcsize(RECORD_FORMAT)


def make_int_probe(flow_id: int, max_hops: int = 16) -> Packet:
    packet = Packet()
    packet.push("int_probe", INT_HEADER.instantiate(
        flow_id=flow_id, hop_count=0, max_hops=max_hops))
    return packet


@dataclass
class HopRecord:
    switch_id: int
    latency_us: int
    queue_depth: int
    egress_port: int


def parse_records(packet: Packet) -> List[HopRecord]:
    """Decode the accumulated per-hop records from the probe payload."""
    records = []
    payload = packet.payload
    for offset in range(0, len(payload) - len(payload) % RECORD_BYTES,
                        RECORD_BYTES):
        fields = struct.unpack_from(RECORD_FORMAT, payload, offset)
        records.append(HopRecord(*fields))
    return records


@dataclass
class IntConfig:
    """Per-switch INT configuration."""

    switch_id: int
    #: Probe routing: ingress port -> egress port (None = sink: deliver
    #: to the collector port instead).
    routes: Dict[int, Optional[int]] = field(default_factory=dict)
    collector_port: int = 2
    #: Models this hop's latency/queue for a probe (time, flow id).
    latency_us: Callable[[float, int], int] = lambda now, flow: 20
    queue_depth: Callable[[float, int], int] = lambda now, flow: 4


class IntTelemetryDataplane:
    """One INT hop: append this switch's record, forward the probe."""

    def __init__(self, switch: DataplaneSwitch, config: IntConfig):
        self.switch = switch
        self.config = config
        self.probes_processed = 0
        self.probes_delivered = 0

    def install(self) -> "IntTelemetryDataplane":
        self.switch.pipeline.add_stage("int", self._stage)
        return self

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("int_probe"):
            return
        header = ctx.packet.get("int_probe")
        if header["hop_count"] >= header["max_hops"]:
            ctx.drop("INT hop limit exceeded")
            return
        self.probes_processed += 1
        egress = self.config.routes.get(ctx.ingress_port)
        flow_id = header["flow_id"]
        record = struct.pack(
            RECORD_FORMAT,
            self.config.switch_id & 0xFFFF,
            self.config.latency_us(ctx.now, flow_id) & 0xFFFF,
            self.config.queue_depth(ctx.now, flow_id) & 0xFFFF,
            (egress if egress is not None
             else self.config.collector_port) & 0xFFFF,
        )
        ctx.packet.payload = ctx.packet.payload + record
        header["hop_count"] += 1
        if egress is None:
            self.probes_delivered += 1
            ctx.emit(self.config.collector_port)
        else:
            ctx.emit(egress)


@dataclass
class IntCollector:
    """Sink-side analytics: path reconstruction and latency profile."""

    probes: List[List[HopRecord]] = field(default_factory=list)

    def ingest(self, packet: Packet, _now: float) -> None:
        if packet.has("int_probe"):
            self.probes.append(parse_records(packet))

    def max_hop_latency_us(self) -> int:
        """The worst per-hop latency seen — the congestion signal."""
        return max((record.latency_us
                    for records in self.probes for record in records),
                   default=0)

    def path_of_last_probe(self) -> List[int]:
        if not self.probes:
            return []
        return [record.switch_id for record in self.probes[-1]]

    def mean_path_latency_us(self) -> float:
        if not self.probes:
            return 0.0
        totals = [sum(r.latency_us for r in records)
                  for records in self.probes]
        return sum(totals) / len(totals)


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the INT hop: append a record, bump the hop count."""
    from repro.verify.ir import (
        BinOp, Const, EmitPacket, FieldRef, HeaderDecl, MetaRef,
        ExportTelemetry, Program, RequireValid, SetField, SetMeta,
        StageDecl,
    )

    switch = DataplaneSwitch("int-verify", num_ports=4)
    IntTelemetryDataplane(switch, IntConfig(switch_id=1)).install()
    return Program.from_switch("int", switch, [StageDecl("int", (
        RequireValid("int_probe"),
        SetMeta("hop_latency_us", Const(20, 16)),
        SetMeta("queue_depth", Const(4, 16)),
        SetField("int_probe", "hop_count", BinOp("add", (
            FieldRef("int_probe", "hop_count"), Const(1, 8)))),
        ExportTelemetry(fields=(
            MetaRef("hop_latency_us"), MetaRef("queue_depth"),
            FieldRef("int_probe", "flow_id"))),
        EmitPacket(headers=("int_probe",)),
    ))], headers=[
        INT_HEADER,
        # Per-hop record fields ride in the payload; claim their PHV scratch.
        HeaderDecl("int_record", (("scratch", RECORD_BYTES * 8),)),
    ])
