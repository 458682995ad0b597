"""Sequential request driver for the Fig 18/19 measurements.

The paper crafts control messages and sends them *sequentially* for 30
seconds, reporting request completion time and completed requests per
second.  :func:`run_sequential` does the same against any stack exposing
``read_register``/``write_register`` with completion callbacks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.analysis import mean
from repro.net.simulator import EventSimulator


def floor_percentile(ordered: Sequence[float], pct: float) -> float:
    """The ``pct``-th percentile of an ascending sequence at the floor
    nearest rank, ``int(pct / 100 * n)`` clamped into range; NaN when
    empty."""
    if not ordered:
        return math.nan
    return ordered[min(len(ordered) - 1,
                       max(0, int(pct / 100.0 * len(ordered))))]


@dataclass
class RunStats:
    """Results of one sequential run."""

    kind: str
    duration_s: float
    rcts_s: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.rcts_s)

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.completed / self.duration_s

    @property
    def mean_rct_s(self) -> float:
        return mean(self.rcts_s)

    def percentile_rct_s(self, pct: float) -> float:
        return floor_percentile(sorted(self.rcts_s), pct)


def run_sequential(sim: EventSimulator, stack, kind: str, switch: str,
                   reg_name: str, duration_s: float = 30.0,
                   index: int = 0, value: int = 0xABCD) -> RunStats:
    """Issue back-to-back requests of one kind for ``duration_s``.

    ``stack`` is any object with ``read_register(switch, reg, index, cb)``
    and ``write_register(switch, reg, index, value, cb)``.  The next
    request is issued the moment the previous one completes, exactly like
    the paper's PTF loop.
    """
    if kind not in ("read", "write"):
        raise ValueError("kind must be 'read' or 'write'")
    stats = RunStats(kind, duration_s)
    start = sim.now
    deadline = start + duration_s
    state = {"sent_at": 0.0}

    def issue() -> None:
        if sim.now >= deadline:
            return
        state["sent_at"] = sim.now
        if kind == "read":
            stack.read_register(switch, reg_name, index, on_complete)
        else:
            stack.write_register(switch, reg_name, index, value, on_complete)

    def on_complete(_ok: bool, _value: int) -> None:
        stats.rcts_s.append(sim.now - state["sent_at"])
        issue()

    issue()
    sim.run(until=deadline)
    # Trim duration to what actually elapsed (sim may stop early if idle).
    stats.duration_s = min(duration_s, sim.now - start) or duration_s
    return stats
