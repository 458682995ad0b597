"""In-network aggregation victim (the paper's Attack 2, JCT impact).

§II-A's Attack 2 notes that in-network aggregation systems (SwitchML/ATP
style) process control/data contributions from workers entirely in the
data plane, and that "altering the content in control messages can trick
the packet-processing algorithm, leading to ... inflated job completion
times (JCT)".

Model: W workers each send one contribution per chunk to an aggregation
switch; the switch sums contributions in per-chunk registers and, once
all W arrived, emits the aggregate toward the parameter server.  The PS
validates each aggregate against a checksum the workers agreed on
out-of-band; a corrupted aggregate forces the whole chunk to be re-sent
(one extra round), inflating JCT.

- **attack**: an on-link MitM rewrites one worker's contributions; the
  corruption is invisible to the switch, every affected chunk fails PS
  validation and repeats — possibly forever while the MitM persists (we
  bound retries).
- **p4auth**: contributions are DP-DP protected; tampered ones are
  dropped at the switch, the aggregation times out for that worker, and
  only the *missing* contribution is re-sent.  JCT grows slightly; the
  result is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch

AGG_HEADER = HeaderType("agg_update", [
    ("job_id", 16),
    ("chunk_id", 16),
    ("worker_id", 8),
    ("value", 32),
])

AGG_RESULT_HEADER = HeaderType("agg_result", [
    ("job_id", 16),
    ("chunk_id", 16),
    ("value", 32),
])


def make_contribution(job_id: int, chunk_id: int, worker_id: int,
                      value: int) -> Packet:
    packet = Packet()
    packet.push("agg_update", AGG_HEADER.instantiate(
        job_id=job_id, chunk_id=chunk_id, worker_id=worker_id,
        value=value & 0xFFFFFFFF))
    return packet


@dataclass
class AggregationConfig:
    num_workers: int = 4
    #: Egress port toward the parameter server.
    ps_port: int = 1
    max_chunks: int = 256


class AggregationDataplane:
    """SwitchML/ATP-style in-switch sum aggregation."""

    def __init__(self, switch: DataplaneSwitch,
                 config: Optional[AggregationConfig] = None):
        self.switch = switch
        self.config = config or AggregationConfig()
        registers = switch.registers
        size = self.config.max_chunks
        self.agg_sum = registers.define("agg_sum", 64, size)
        self.agg_count = registers.define("agg_count", 16, size)
        self.agg_bitmap = registers.define("agg_bitmap", 32, size)
        self.aggregates_emitted = 0

    def install(self) -> "AggregationDataplane":
        self.switch.pipeline.add_stage("aggregate", self._stage)
        return self

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("agg_update"):
            return
        update = ctx.packet.get("agg_update")
        chunk = update["chunk_id"] % self.config.max_chunks
        worker_bit = 1 << (update["worker_id"] % 32)
        bitmap = self.agg_bitmap.read(chunk)
        if bitmap & worker_bit:
            return  # duplicate contribution (retransmit overlap): ignore
        self.agg_bitmap.write(chunk, bitmap | worker_bit)
        self.agg_sum.read_modify_write(chunk, lambda v: v + update["value"])
        count = self.agg_count.read_modify_write(chunk, lambda v: v + 1)
        if count >= self.config.num_workers:
            result = Packet()
            result.push("agg_result", AGG_RESULT_HEADER.instantiate(
                job_id=update["job_id"], chunk_id=update["chunk_id"],
                value=self.agg_sum.read(chunk) & 0xFFFFFFFF))
            self.agg_sum.write(chunk, 0)
            self.agg_count.write(chunk, 0)
            self.agg_bitmap.write(chunk, 0)
            self.aggregates_emitted += 1
            ctx.emit(self.config.ps_port, result)

    def reset_chunk(self, chunk: int) -> None:
        """PS-triggered reset before a chunk retry."""
        self.agg_sum.write(chunk, 0)
        self.agg_count.write(chunk, 0)
        self.agg_bitmap.write(chunk, 0)

    def missing_workers(self, chunk: int) -> List[int]:
        """Which workers' contributions are outstanding for a chunk."""
        bitmap = self.agg_bitmap.read(chunk % self.config.max_chunks)
        return [worker for worker in range(self.config.num_workers)
                if not bitmap & (1 << worker)]


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the aggregation stage.

    The result value comes from the atomic ``RegReadModifyWrite`` dst
    (the stateful ALU returns the updated sum), not from a plain read
    after the write — hardware has no second access to the array in the
    same stage (invariant INV002).
    """
    from repro.verify.ir import (
        BinOp, Const, EmitPacket, FieldRef, MetaRef, Program, RegRead,
        RegReadModifyWrite, RegWrite, RequireValid, SetField, SetMeta,
        StageDecl,
    )

    switch = DataplaneSwitch("inaggr-verify", num_ports=4)
    AggregationDataplane(switch).install()
    return Program.from_switch("inaggr", switch, [StageDecl("aggregate", (
        RequireValid("agg_update"),
        RequireValid("agg_result"),
        SetMeta("chunk", FieldRef("agg_update", "chunk_id")),
        RegRead("agg_bitmap", MetaRef("chunk"), "bitmap"),
        RegWrite("agg_bitmap", MetaRef("chunk"), BinOp("or", (
            MetaRef("bitmap"), Const(1)))),
        RegReadModifyWrite("agg_sum", MetaRef("chunk"),
                           FieldRef("agg_update", "value"), "sum_new"),
        RegReadModifyWrite("agg_count", MetaRef("chunk"), Const(1),
                           "count_new"),
        SetField("agg_result", "job_id", FieldRef("agg_update", "job_id")),
        SetField("agg_result", "chunk_id",
                 FieldRef("agg_update", "chunk_id")),
        SetField("agg_result", "value", MetaRef("sum_new")),
        EmitPacket(headers=("agg_result",)),
    ))], headers=[AGG_HEADER, AGG_RESULT_HEADER])
