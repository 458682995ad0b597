"""Synthetic traffic traces (substitute for the paper's CAIDA replay).

Fig 16 replays CAIDA PCAP traces into RouteScout for 60 seconds.  CAIDA
data is license-gated, so we generate synthetic traffic with the two
properties RouteScout's decision loop actually depends on: heavy-tailed
flow sizes (Pareto) and Poisson flow arrivals.  Generation is seeded and
fully reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

from repro.crypto.prng import XorShiftPrng

#: Flow-size distribution: Pareto with shape (alpha) PARETO_SHAPE and
#: scale MIN_FLOW_BYTES, capped at MAX_FLOW_BYTES — the canonical
#: heavy-tailed internet traffic model.  Shape 1.2 gives the
#: mice-and-elephants mix RouteScout's paths see.
PARETO_SHAPE = 1.2
MIN_FLOW_BYTES = 1200
MAX_FLOW_BYTES = 50_000_000
#: Bytes per packet when a flow is cut into packets.
MTU_BYTES = 1500


@dataclass
class Flow:
    """One synthetic flow."""

    flow_id: int
    start_time: float
    size_bytes: int
    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = 6  # TCP

    def packet_count(self) -> int:
        return max(1, math.ceil(self.size_bytes / MTU_BYTES))


class TraceGenerator:
    """Seeded generator of CAIDA-like flow arrivals.

    Parameters
    ----------
    seed:
        PRNG seed; identical seeds generate identical traces.
    arrival_rate_hz:
        Mean flow arrival rate (Poisson).

    Flow sizes follow :data:`PARETO_SHAPE` / :data:`MIN_FLOW_BYTES` /
    :data:`MAX_FLOW_BYTES`.
    """

    def __init__(self, seed: int = 42, arrival_rate_hz: float = 200.0):
        if arrival_rate_hz <= 0:
            raise ValueError("arrival_rate_hz must be positive")
        self._prng = XorShiftPrng(seed)
        self.arrival_rate_hz = arrival_rate_hz

    def _exponential(self, rate: float) -> float:
        u = max(self._prng.uniform(), 1e-12)
        return -math.log(u) / rate

    def _pareto_size(self) -> int:
        u = max(self._prng.uniform(), 1e-12)
        size = MIN_FLOW_BYTES / (u ** (1.0 / PARETO_SHAPE))
        return int(min(size, MAX_FLOW_BYTES))

    def flows(self, duration_s: float) -> Iterator[Flow]:
        """Yield flows with start times in [0, duration_s), in time order."""
        now = 0.0
        flow_id = 0
        while True:
            now += self._exponential(self.arrival_rate_hz)
            if now >= duration_s:
                return
            flow_id += 1
            yield Flow(
                flow_id=flow_id,
                start_time=now,
                size_bytes=self._pareto_size(),
                src_ip=0x0A000000 | self._prng.next_bits(16),
                dst_ip=0xC0A80000 | self._prng.next_bits(16),
                src_port=1024 + self._prng.next_bits(14),
                dst_port=(80, 443, 8080, 53)[self._prng.next_bits(2)],
            )
