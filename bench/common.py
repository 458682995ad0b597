"""Shared helpers: paths, correctness gates, fingerprints, process readings."""

from __future__ import annotations

import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch output (traces, result files, daemon state dirs); ignored by
#: bench/.gitignore.  Everything the benchmark writes lands here.
OUT = ROOT / "bench" / "out"

_TICKS = os.sysconf("SC_CLK_TCK")


class GateFailure(Exception):
    """A correctness gate did not hold: the run fails, no number is kept."""


def gate(condition: bool, message: str) -> None:
    if not condition:
        raise GateFailure(message)


def fingerprint(document) -> str:
    """sha256 over the canonical JSON of a workload's virtual-time results."""
    text = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def child_env() -> Dict[str, str]:
    """Environment for children that import ``repro`` (and ``bench``)."""
    env = dict(os.environ)
    paths = [str(SRC), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    return env


def python() -> str:
    return sys.executable or "python3"


def scratch_dir(prefix: str) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT)


def proc_cpu_s(pid: int) -> float:
    """user+sys CPU seconds a live process has used so far."""
    with open(f"/proc/{pid}/stat") as handle:
        # Fields after the parenthesised command name; utime and stime
        # are the 14th and 15th of the whole line.
        rest = handle.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / _TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# the yardstick
# ---------------------------------------------------------------------------
#
# The reference box is a 2-vCPU guest whose speed swings by 1.3-2x for
# seconds to tens of seconds at a time (measured: the same 10 s of work
# gave medians from 903 to 1 903 req/s with nothing else running).  A
# median over slices cannot remove a swing that outlasts the run, so every
# slice is timed beside a fixed pure-Python loop, the yardstick, and its
# rate is scaled by how fast the yardstick ran just then.  Results read
# as "at reference speed": the speed at which the yardstick takes
# YARDSTICK_REF_S.  The yardstick is timed in CPU time, which a guest
# charges for stolen host time but not for its own scheduling, and the
# whole benchmark is pinned to one vCPU so that the yardstick and the
# process under test share the core whose speed is being measured.

YARDSTICK_ROUNDS = 2_000
#: CPU seconds the yardstick takes on the reference box when undisturbed.
YARDSTICK_REF_S = 0.005


class _Node:
    def __init__(self, key: int):
        self.fields = {"a": key, "b": key + 1}
        self.stack = [("h", self.fields)]

    def get(self, wanted: str):
        for name, fields in self.stack:
            if name == wanted:
                return fields
        return None


def yardstick() -> float:
    """Relative machine speed right now (1.0 = reference, 0.5 = half).

    The loop mixes what the program under test does all day — small
    object allocation, dict and list walks, bytes round trips, masked
    integer arithmetic — so that it slows down with the host in about the
    same proportion (a pure-arithmetic loop under-reads a slow spell).
    """
    started = time.thread_time()
    table: Dict[int, _Node] = {}
    acc = 0
    for i in range(YARDSTICK_ROUNDS):
        node = _Node(i)
        fields = node.get("h")
        fields["a"] = (fields["a"] * 31 + i) & 0xFFFF
        table[i & 255] = node
        raw = i.to_bytes(4, "little") + bytes(8)
        acc ^= int.from_bytes(raw[:4], "little") + len(table)
        for _ in range(8):
            acc = ((acc << 5 | acc >> 27) + i) & 0xFFFFFFFF
    return YARDSTICK_REF_S / (time.thread_time() - started)


def pin_to_one_cpu() -> None:
    """Pin this process (children inherit) to one of its allowed CPUs."""
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # not Linux, or not permitted: run unpinned


#: One slice: (ops completed, wall seconds, CPU seconds of the process
#: under test, machine speed while it ran).
Slice = Tuple[int, float, float, float]


@dataclass
class Measured:
    """What one timed region produced.

    The region is one or more phases (``serve_http``: single ops, then
    batches), each cut into slices.  A phase's rate is the median over
    its slices of the slice's rate at reference speed, so neither a burst
    of interference nor a slow spell of the host moves it; the region's
    rate is what it would be with every phase running at its median.
    """

    phases: List[List[Slice]]
    failed: int
    peak_rss_mb: float
    #: Workload-specific extras (latency samples, restart times, phase rates).
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def slices(self) -> List[Slice]:
        return [piece for phase in self.phases for piece in phase]

    @property
    def ops(self) -> int:
        return sum(piece[0] for piece in self.slices)

    @property
    def wall_s(self) -> float:
        return sum(piece[1] for piece in self.slices)

    @property
    def cpu_s(self) -> float:
        return sum(piece[2] for piece in self.slices)

    @property
    def ops_per_s(self) -> float:
        seconds = sum(phase_ops(phase) / phase_rate(phase)
                      for phase in self.phases)
        return self.ops / seconds

    @property
    def raw_ops_per_s(self) -> float:
        """As the clock saw it, host swings included."""
        seconds = sum(phase_ops(phase) / phase_rate(phase, scaled=False)
                      for phase in self.phases)
        return self.ops / seconds

    @property
    def cpu_us_per_op(self) -> float:
        cpu = sum(phase_ops(phase) * statistics.median(
            cpu * speed / ops for ops, _wall, cpu, speed in phase)
            for phase in self.phases)
        return 1e6 * cpu / self.ops

    @property
    def speed(self) -> float:
        return statistics.median(piece[3] for piece in self.slices)


def phase_ops(phase: List[Slice]) -> int:
    return sum(piece[0] for piece in phase)


def phase_rate(phase: List[Slice], scaled: bool = True) -> float:
    """Median slice rate of one phase (at reference speed if ``scaled``)."""
    return statistics.median(
        ops / wall / (speed if scaled else 1.0)
        for ops, wall, _cpu, speed in phase)


class SliceClock:
    """Cuts an in-process timed region into slices."""

    def __init__(self):
        self.slices: List[Slice] = []
        self._speed = yardstick()
        self._wall = time.perf_counter()
        self._cpu = time.process_time()

    def cut(self, ops: int) -> None:
        wall = time.perf_counter() - self._wall
        cpu = time.process_time() - self._cpu
        speed = yardstick()
        self.slices.append((ops, wall, cpu, (self._speed + speed) / 2))
        self._speed = speed
        self._wall = time.perf_counter()
        self._cpu = time.process_time()
