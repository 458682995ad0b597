"""The data-plane switch: ports, pipeline, registers, tables, externs.

:class:`DataplaneSwitch` is the pure packet-processing machine.  It has no
notion of time or links — it maps (packet, ingress port) to a list of
pipeline actions.  The network layer (:mod:`repro.net`) wraps switches in
nodes that schedule those actions on simulated links and charge
processing-time costs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

from repro.dataplane.externs import HashExtern, RandomExtern
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import (
    Drop,
    Pipeline,
    PipelineAction,
    PipelineContext,
)
from repro.dataplane.registers import RegisterFile
from repro.dataplane.tables import MatchActionTable
from repro.telemetry import NULL_TELEMETRY, Telemetry

#: Buckets for the batch-execution size histogram (packets per
#: :meth:`DataplaneSwitch.process_many` call).
PROCESS_BATCH_BUCKETS = (1, 8, 64, 256, 1024, 4096, 16384)


class DataplaneSwitch:
    """A programmable switch data plane.

    Parameters
    ----------
    name:
        Switch identifier (e.g., ``"s1"``).
    num_ports:
        Number of front-panel ports, numbered ``1..num_ports``.
        Port 0 is reserved as the CPU/controller port.
    seed:
        Seed for the switch's ``random()`` extern.
    """

    CPU_PORT = 0

    def __init__(self, name: str, num_ports: int = 8, seed: int = 1):
        if num_ports < 1:
            raise ValueError("switch needs at least one port")
        self.name = name
        self.num_ports = num_ports
        self.registers = RegisterFile()
        self.tables: Dict[str, MatchActionTable] = {}
        self.pipeline = Pipeline(f"{name}-ingress")
        self.hash = HashExtern()
        self.random = RandomExtern(seed)
        self.packets_processed = 0
        self.packets_dropped = 0
        self.pipeline_passes = 0
        #: Drop tally by reason string (always on; a dict increment).
        self.drop_reasons: Dict[str, int] = {}
        #: Called with the telemetry each time it is bound, so a program
        #: fragment (P4Auth) rebinds its handles with the switch's.
        self.on_telemetry_bound: List[Callable[[Telemetry], None]] = []
        self.telemetry = NULL_TELEMETRY

    @property
    def telemetry(self) -> Telemetry:
        """Observability sink; :meth:`repro.net.network.Network.add_switch`
        rebinds this to the fabric's instance when one is enabled."""
        return self._telemetry

    @telemetry.setter
    def telemetry(self, telemetry: Telemetry) -> None:
        """Bind the sink and every handle counted per packet through it."""
        self._telemetry = telemetry
        metrics = telemetry.metrics
        self._passes = metrics.bind_counter(
            "dataplane_pipeline_passes_total", switch=self.name)
        self._batches = metrics.bind_counter(
            "dataplane_process_batches_total", switch=self.name)
        self._batch_size = metrics.bind_histogram(
            "dataplane_process_batch_size", buckets=PROCESS_BATCH_BUCKETS,
            switch=self.name)
        self.pipeline.bind(metrics, self.name)
        for hook in self.on_telemetry_bound:
            hook(telemetry)

    # -- program construction ------------------------------------------------

    def add_table(self, table: MatchActionTable) -> MatchActionTable:
        if table.name in self.tables:
            raise ValueError(f"switch {self.name!r} already has table {table.name!r}")
        self.tables[table.name] = table
        return table

    def table(self, name: str) -> MatchActionTable:
        if name not in self.tables:
            raise KeyError(f"switch {self.name!r} has no table {name!r}")
        return self.tables[name]

    def valid_port(self, port: int) -> bool:
        return port == self.CPU_PORT or 1 <= port <= self.num_ports

    def introspect(self) -> Dict[str, object]:
        """Full static view of the installed program, for repro.verify.

        Returns the pipeline stage order plus per-table and per-register
        layout records — what ``Program.from_switch`` reads a program's
        declarations from, without running a single packet.
        """
        return {
            "name": self.name,
            "num_ports": self.num_ports,
            "stages": self.pipeline.stage_names(),
            "tables": {name: t.describe() for name, t in self.tables.items()},
            "registers": self.registers.describe(),
        }

    # -- packet processing -----------------------------------------------------

    def process(self, packet: Packet, ingress_port: int,
                now: float = 0.0) -> List[PipelineAction]:
        """Run one packet through the pipeline: one pass.

        Returns the externally visible actions (Emit, ToController, Drop).
        """
        actions = self._run_one(packet, ingress_port, now)
        self._passes.inc()
        return actions

    def process_many(self, batch: List[Tuple[Packet, int]],
                     now: float = 0.0) -> List[List[PipelineAction]]:
        """Run a batch of ``(packet, ingress_port)`` pairs; one result each.

        Semantically identical to ``[self.process(p, port, now) for
        (p, port) in batch]`` — same actions, same register mutations,
        same drop attribution, same hash-extern invocation counts, same
        telemetry totals — but per-packet Python overhead (attribute
        lookups, telemetry dispatch) is paid once per batch, which is
        what makes large trace replays affordable.  The resource and
        timing models are unchanged: every packet still consumes its own
        pipeline pass and extern invocations.
        """
        run_one = self._run_one
        results = [run_one(packet, ingress_port, now)
                   for packet, ingress_port in batch]
        if batch:
            self._passes.inc(len(batch))
        self._batches.inc()
        self._batch_size.observe(len(results))
        return results

    def _run_one(self, packet: Packet, ingress_port: int,
                 now: float) -> List[PipelineAction]:
        """One packet's pipeline pass: its actions."""
        if not self.valid_port(ingress_port):
            raise ValueError(
                f"invalid ingress port {ingress_port} on switch {self.name!r}"
            )
        self.packets_processed += 1
        ctx = PipelineContext(self, packet, ingress_port, now)
        actions = self.pipeline.run(ctx)
        self.pipeline_passes += 1
        for action in actions:
            if type(action) is Drop:
                self.packets_dropped += 1
                self._count_drop(action, ctx.stage)
        return actions

    def _count_drop(self, action: Drop, stage: str) -> None:
        """Attribute a pipeline drop to its reason and deciding stage."""
        reason = action.reason or "unspecified"
        self.drop_reasons[reason] = self.drop_reasons.get(reason, 0) + 1
        telemetry = self._telemetry
        if telemetry.enabled:
            telemetry.metrics.counter(
                "dataplane_drop_total", switch=self.name, stage=stage,
                reason=reason,
            ).inc()
            telemetry.tracer.emit("packet.drop", layer="pipeline",
                                  switch=self.name, stage=stage,
                                  reason=reason)

    def __repr__(self) -> str:
        return (
            f"DataplaneSwitch({self.name!r}, ports={self.num_ports}, "
            f"tables={len(self.tables)}, registers={len(self.registers)})"
        )
