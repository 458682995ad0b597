"""RouteScout: performance-aware internet path selection [3] (Fig 2).

RouteScout runs at a network edge and steers outgoing traffic across a
small set of upstream paths.  The data plane aggregates per-path latency
into registers; the controller periodically *reads* those registers,
computes a new traffic split, and *writes* it back — making both
directions of its control loop C-DP messages of the paper's threat model.
An adversary at the switch OS who inflates path-1's reported latency
makes the controller shift traffic onto path 2 (Fig 2); with P4Auth the
tampered response fails digest verification and the controller keeps the
current split (Fig 16).

The paper itself implemented RouteScout as a software simulation (its
source is unavailable); this module is the equivalent simulation on our
switch substrate.  Per-packet path latency samples come from a
:class:`PathModel` — base propagation latency plus a congestion term
driven by the path's current load — standing in for the passive RTT
measurement the real system performs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.crypto.crc import Crc32
from repro.dataplane.headers import HeaderType
from repro.dataplane.packet import Packet
from repro.dataplane.pipeline import PipelineContext
from repro.dataplane.switch import DataplaneSwitch

#: Outgoing data packets: destination + flow identity.
RS_DATA_HEADER = HeaderType("rs_data", [
    ("dst", 32),
    ("flow_id", 32),
])

_PAYLOAD = bytes(1400)


def make_rs_packet(dst: int, flow_id: int, size_bytes: int = 1408) -> Packet:
    header_bytes = RS_DATA_HEADER.byte_width
    pad = max(0, size_bytes - header_bytes)
    packet = Packet(payload=_PAYLOAD[:pad] if pad <= len(_PAYLOAD)
                    else bytes(pad))
    packet.push("rs_data", RS_DATA_HEADER.instantiate(
        dst=dst & 0xFFFFFFFF, flow_id=flow_id & 0xFFFFFFFF))
    return packet


@dataclass
class PathModel:
    """Synthetic latency process for one upstream path.

    ``latency_us = base_us + sensitivity_us_per_pct * utilization_pct`` —
    the canonical congestion response.  Utilization comes from the data
    plane's own windowed byte counters, closing the feedback loop: the
    more traffic RouteScout puts on a path, the worse that path reports.
    """

    base_us: int
    sensitivity_us_per_pct: float = 8.0

    def latency_us(self, utilization_pct: int) -> int:
        return int(self.base_us + self.sensitivity_us_per_pct * utilization_pct)


@dataclass
class RouteScoutConfig:
    """Per-switch RouteScout configuration (two upstream paths)."""

    #: Egress port per path id (exactly two paths, as in Fig 2).
    path_ports: List[int] = field(default_factory=lambda: [2, 3])
    #: Latency process per path.
    path_models: List[PathModel] = field(default_factory=lambda: [
        PathModel(base_us=400), PathModel(base_us=700),
    ])
    #: Utilization estimator window and modeled path capacity.
    util_window_s: float = 0.1
    capacity_bps: float = 100e6
    #: Initial split: percent of flows on path 0.
    initial_split_pct: int = 50

    def __post_init__(self) -> None:
        if len(self.path_ports) != 2 or len(self.path_models) != 2:
            raise ValueError("RouteScout models exactly two upstream paths")


class RouteScoutDataplane:
    """RouteScout's switch-resident half.

    Registers exposed to the controller (and hence to the C-DP threat
    surface): ``rs_split`` (percent of flows hashed onto path 0),
    ``rs_lat_sum`` and ``rs_lat_cnt`` (per-path latency aggregates).
    """

    def __init__(self, switch: DataplaneSwitch,
                 config: Optional[RouteScoutConfig] = None):
        self.switch = switch
        self.config = config or RouteScoutConfig()
        registers = switch.registers
        self.split = registers.define("rs_split", 8, 1)
        self.split.write(0, self.config.initial_split_pct)
        self.lat_sum = registers.define("rs_lat_sum", 64, 2)
        self.lat_cnt = registers.define("rs_lat_cnt", 32, 2)
        size = switch.num_ports + 1
        self._win_id = registers.define("rs_util_window", 64, size)
        self._win_cur = registers.define("rs_util_bytes_cur", 64, size)
        self._win_prev = registers.define("rs_util_bytes_prev", 64, size)
        self._crc = Crc32()
        self.tx_per_path: Dict[int, int] = {0: 0, 1: 0}
        self.forwarded = 0

    def install(self) -> "RouteScoutDataplane":
        self.switch.pipeline.add_stage("routescout", self._stage)
        return self

    # -- utilization estimator (same windowed design as HULA's) --------------

    def _account_tx(self, port: int, size_bytes: int, now: float) -> None:
        window = int(now / self.config.util_window_s)
        if self._win_id.read(port) != window:
            if self._win_id.read(port) == window - 1:
                self._win_prev.write(port, self._win_cur.read(port))
            else:
                self._win_prev.write(port, 0)
            self._win_id.write(port, window)
            self._win_cur.write(port, 0)
        self._win_cur.read_modify_write(port, lambda v: v + size_bytes)

    def port_util(self, port: int, now: float) -> int:
        window = int(now / self.config.util_window_s)
        if self._win_id.read(port) < window - 1:
            return 0
        window_bytes = self._win_prev.read(port)
        capacity_bytes = (self.config.capacity_bps / 8.0
                          * self.config.util_window_s)
        return min(100, int(100.0 * window_bytes / capacity_bytes))

    # -- pipeline stage ----------------------------------------------------------

    def _stage(self, ctx: PipelineContext) -> None:
        if not ctx.packet.has("rs_data"):
            return
        data = ctx.packet.get("rs_data")
        bucket = self._crc.compute(data["flow_id"].to_bytes(4, "little")) % 100
        path = 0 if bucket < self.split.read(0) else 1
        port = self.config.path_ports[path]
        # Passive latency measurement: aggregate this packet's sample.
        sample = self.config.path_models[path].latency_us(
            self.port_util(port, ctx.now))
        self.lat_sum.read_modify_write(path, lambda v: v + sample)
        self.lat_cnt.read_modify_write(path, lambda v: v + 1)
        self.tx_per_path[path] += 1
        self.forwarded += 1
        self._account_tx(port, ctx.packet.size_bytes, ctx.now)
        ctx.emit(port)


class RouteScoutController:
    """RouteScout's control loop over a pluggable register client.

    ``client`` is any object exposing ``read_register(switch, reg, index,
    cb)`` / ``write_register(switch, reg, index, value, cb)`` — the
    authenticated :class:`~repro.core.P4AuthController` or the vulnerable
    :class:`~repro.runtime.PlainController`.  Each epoch the controller
    reads the four latency aggregates, recomputes the split (inverse-
    latency weighting, exponentially smoothed), writes it back, and clears
    the aggregates.  If any read of the epoch went missing or failed
    verification, the epoch is skipped: the current split is retained and
    the event is counted — the "refrains from changing the ratio" defense
    the paper demonstrates.
    """

    def __init__(self, client, sim, switch_name: str, epoch_s: float = 1.0,
                 smoothing: float = 0.5, min_split: int = 5,
                 max_split: int = 95):
        self.client = client
        self.sim = sim
        self.switch_name = switch_name
        self.epoch_s = epoch_s
        self.smoothing = smoothing
        self.min_split = min_split
        self.max_split = max_split
        self.current_split = 50
        self.epochs_run = 0
        self.epochs_skipped = 0
        self.split_history: List[int] = []
        self._running = False

    def start(self) -> None:
        self._running = True
        self.sim.schedule(self.epoch_s, self._epoch)

    def stop(self) -> None:
        self._running = False

    def _epoch(self) -> None:
        if not self._running:
            return
        values: Dict[str, int] = {}

        def reader(key: str) -> Callable[[bool, int], None]:
            def callback(ok: bool, value: int) -> None:
                if ok:
                    values[key] = value
            return callback

        for path in (0, 1):
            self.client.read_register(self.switch_name, "rs_lat_sum", path,
                                      reader(f"sum{path}"))
            self.client.read_register(self.switch_name, "rs_lat_cnt", path,
                                      reader(f"cnt{path}"))
        # Give the reads most of the epoch to complete, then evaluate.
        self.sim.schedule(self.epoch_s * 0.5, self._finish_epoch, values)
        self.sim.schedule(self.epoch_s, self._epoch)

    def _finish_epoch(self, values: Dict[str, int]) -> None:
        self.epochs_run += 1
        complete = all(f"{k}{p}" in values for k in ("sum", "cnt")
                       for p in (0, 1))
        if not complete or values["cnt0"] == 0 or values["cnt1"] == 0:
            # Tampered/missing responses (or an idle path): keep the
            # current split and raise no write.
            self.epochs_skipped += 1
            self.split_history.append(self.current_split)
            return
        avg0 = values["sum0"] / values["cnt0"]
        avg1 = values["sum1"] / values["cnt1"]
        weight0 = 1.0 / max(avg0, 1.0)
        weight1 = 1.0 / max(avg1, 1.0)
        target = 100.0 * weight0 / (weight0 + weight1)
        blended = (self.smoothing * target
                   + (1.0 - self.smoothing) * self.current_split)
        self.current_split = int(
            min(self.max_split, max(self.min_split, round(blended))))
        self.split_history.append(self.current_split)
        self.client.write_register(self.switch_name, "rs_split", 0,
                                   self.current_split)
        for path in (0, 1):
            self.client.write_register(self.switch_name, "rs_lat_sum", path, 0)
            self.client.write_register(self.switch_name, "rs_lat_cnt", path, 0)


# ---------------------------------------------------------------------------
# static-verification metadata (consumed by repro.verify)
# ---------------------------------------------------------------------------

def verify_program() -> "object":
    """Verify IR of the RouteScout stage."""
    from repro.verify.ir import (
        Const, EmitPacket, FieldRef, HashDecl, HashDigest, MetaRef,
        Program, RegRead, RegReadModifyWrite, RegWrite, RequireValid,
        SetMeta, StageDecl,
    )

    switch = DataplaneSwitch("routescout-verify", num_ports=4)
    RouteScoutDataplane(switch).install()
    return Program.from_switch("routescout", switch, [StageDecl("routescout", (
        RequireValid("rs_data"),
        SetMeta("port", Const(0, 16)),
        SetMeta("sample", Const(20, 32)),
        HashDigest("bucket", (FieldRef("rs_data", "flow_id"),),
                   keyed=False, extern="crc32"),
        RegRead("rs_split", Const(0), "split"),
        RegRead("rs_util_window", MetaRef("port"), "win_id"),
        RegRead("rs_util_bytes_cur", MetaRef("port"), "cur"),
        RegWrite("rs_util_bytes_prev", MetaRef("port"), MetaRef("cur")),
        RegWrite("rs_util_window", MetaRef("port"), MetaRef("win_id")),
        RegReadModifyWrite("rs_util_bytes_cur", MetaRef("port"),
                           Const(1408), "cur_new"),
        RegReadModifyWrite("rs_lat_sum", MetaRef("bucket"),
                           MetaRef("sample"), "lat_total"),
        RegReadModifyWrite("rs_lat_cnt", MetaRef("bucket"), Const(1),
                           "lat_n"),
        EmitPacket(headers=("rs_data",)),
    ))], headers=[RS_DATA_HEADER], hashes=[HashDecl("rs_flow_bucket", 1)])
