"""``serve_http`` / ``serve_durable``: the daemon behind a real socket.

The only workloads that cross ``service.http``, ``service.auth`` and the
shard queue on top of the ``cdp_rw`` path.  ``serve_http`` runs without
a store (mixed single ops, then ``/v1/batch``); ``serve_durable`` adds
``--state-dir --fsync batch``, writes only, and three SIGKILL -> respawn
cycles whose follow-up writes prove no replay or DoS defense tripped.

Closed loop, two keep-alive connections (the daemon is one CPU-bound
thread, so a second connection only queues).  Each connection owns half
of the switches, which keeps every register's write order — and so the
end state — independent of how the two interleave.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import shutil
import statistics
import time
from typing import Dict, Iterator, List, Optional, Tuple

from bench import loadgen
from bench.common import (
    Measured,
    Slice,
    gate,
    phase_rate,
    scratch_dir,
    yardstick,
)
from bench.loadgen import Connection, Daemon, Request, Tally

M = 100
SHARDS = 2
#: Slots the generator touches per switch (of the register's 16): keeps
#: the closing read-back of every written slot short.
SLOTS = 4
CONNECTIONS = min(2, os.cpu_count() or 1)
WARMUP_REQUESTS = 200
BATCH_OPS = 32
WRITE_SHARE = 0.75
RESTART_CYCLES = 3
WRITES_AFTER_RESTART = 200
#: Register ops one host second buys on the 2-core reference box.
SINGLE_OPS_PER_HOST_S = 1200
BATCH_OPS_PER_HOST_S = 1550
DURABLE_OPS_PER_HOST_S = 1050
#: Share of ``--seconds`` spent on single ops in ``serve_http``.
SINGLE_SHARE = 0.75
#: Share of ``--seconds`` spent on the steady writes of ``serve_durable``
#: (the rest pays for the restart cycles).
DURABLE_STEADY_SHARE = 0.7
JOURNAL_BYTES = "repro_store_journal_bytes_total"

Op = Tuple[str, str, int, int, Optional[int]]  # kind, switch, slot, value, expect


class OpStream:
    """Seeded ops for one connection's switches, with the register model
    a correct daemon must agree with."""

    def __init__(self, seed: int, switches: List[str], write_share: float):
        self.rng = random.Random(seed)
        self.switches = switches
        self.write_share = write_share
        self.model: Dict[Tuple[str, int], int] = {}

    def __iter__(self) -> Iterator[Op]:
        return self

    def __next__(self) -> Op:
        rng = self.rng
        switch, slot = rng.choice(self.switches), rng.randrange(SLOTS)
        if rng.random() < self.write_share:
            value = rng.getrandbits(48)
            self.model[(switch, slot)] = value
            return ("write", switch, slot, value, None)
        return ("read", switch, slot, 0, self.model.get((switch, slot), 0))

    def take(self, count: int) -> List[Op]:
        return [next(self) for _ in range(count)]


def connection_streams(seed: int, write_share: float) -> List[OpStream]:
    names = [f"sw{i}" for i in range(M)]
    return [OpStream(seed * 7919 + index, names[index::CONNECTIONS],
                     write_share)
            for index in range(CONNECTIONS)]


class Serving:
    op = "register ops"
    in_process = False

    def __init__(self, name: str):
        self.name = name
        self.durable = name == "serve_durable"
        #: Runs SIGKILL -> respawn cycles and times them itself.
        self.restarts = self.durable
        self.daemon: Optional[Daemon] = None
        self.connections: List[Connection] = []
        self.workdir: Optional[str] = None
        self.trace_path: Optional[str] = None
        #: Traced pass: the dump taken as the timed region starts, and
        #: the dumps that close each incarnation (see harness).
        self.trace_baseline: Optional[dict] = None
        self.trace_exports: List[dict] = []

    # -- daemon ---------------------------------------------------------

    def _serve_args(self) -> List[str]:
        args = ["--m", str(M), "--shards", str(SHARDS), "--port", "0"]
        if self.durable:
            args += ["--state-dir", os.path.join(self.workdir, "state"),
                     "--fsync", "batch"]
        return args

    def _spawn(self) -> float:
        self.daemon = Daemon(self._serve_args(),
                             os.path.join(self.workdir, "daemon.log"),
                             trace_path=self.trace_path)
        return self.daemon.start()

    def measure_setup(self) -> float:
        """One cold start: spawn until the daemon is listening."""
        self.workdir = scratch_dir(f"{self.name}-setup-")
        try:
            elapsed = self._spawn()
        finally:
            if self.daemon is not None:
                self.daemon.kill()
            shutil.rmtree(self.workdir, ignore_errors=True)
        return elapsed

    # -- set-up ---------------------------------------------------------

    def setup(self, seed: int, seconds: float, traced: bool = False) -> None:
        self.workdir = scratch_dir(f"{self.name}-")
        if traced:
            self.trace_path = os.path.join(self.workdir, "child_trace.json")
        self.loop = asyncio.new_event_loop()
        write_share = 1.0 if self.durable else WRITE_SHARE
        self.streams = connection_streams(seed, write_share)

        def singles(count: int) -> List[List[Request]]:
            share = count // CONNECTIONS
            return [[loadgen.single_op(*op) for op in stream.take(share)]
                    for stream in self.streams]

        self.warm = singles(WARMUP_REQUESTS)
        if self.durable:
            steady = int(seconds * DURABLE_STEADY_SHARE
                         * DURABLE_OPS_PER_HOST_S)
            self.phase_single = singles(steady)
            self.phase_batch: List[List[Request]] = []
            self.after_restart = []
            for _ in range(RESTART_CYCLES):
                # The switches are simulated inside the daemon: SIGKILL
                # zeroes every register, so the model starts over too.
                for stream in self.streams:
                    stream.model.clear()
                probe = loadgen.single_op("read", "sw0", 0, 0, 0)
                self.after_restart.append(
                    (probe, singles(WRITES_AFTER_RESTART)))
        else:
            self.phase_single = singles(
                int(seconds * SINGLE_SHARE * SINGLE_OPS_PER_HOST_S))
            batches = max(CONNECTIONS, int(
                seconds * (1 - SINGLE_SHARE) * BATCH_OPS_PER_HOST_S
                / BATCH_OPS))
            self.phase_batch = [
                [loadgen.batch_op(stream.take(BATCH_OPS))
                 for _ in range(batches // CONNECTIONS)]
                for stream in self.streams]
            self.after_restart = []
        self._spawn()
        self._connect()

    def _connect(self) -> None:
        self.connections = [
            self.loop.run_until_complete(Connection(self.daemon.port).open())
            for _ in range(CONNECTIONS)]

    def _disconnect(self) -> None:
        for connection in self.connections:
            self.loop.run_until_complete(connection.close())
        self.connections = []

    def _drive(self, per_connection, timed: bool = False,
               keep_latencies: bool = False) -> Tally:
        """One closed-loop phase; a timed one is cut into slices of
        (ops, wall, daemon CPU, machine speed) and counts toward the run."""
        tally = self.loop.run_until_complete(loadgen.drive(
            self.connections, per_connection, keep_latencies,
            daemon_cpu_s=self.daemon.cpu_s if timed else None))
        if timed:
            self.tallies.append(tally)
        return tally

    def _get(self, path: str) -> str:
        return self.loop.run_until_complete(
            loadgen.get_text(self.daemon.port, path))

    def warmup(self) -> None:
        tally = self._drive(self.warm)
        gate(tally.failed == 0 and tally.wrong_reads == 0,
             "warm-up requests failed")

    # -- run ------------------------------------------------------------

    def run(self) -> Measured:
        self.tallies: List[Tally] = []
        self.journal_bytes = 0.0
        restarted: List[Slice] = []
        peak_rss = 0.0
        restarts: List[float] = []
        if self.trace_path:
            self.trace_baseline = self.daemon.dump_trace()
        generator_cpu = time.process_time()
        region_start = time.perf_counter()
        dumping_s = 0.0

        single = self._drive(self.phase_single, timed=True,
                             keep_latencies=True)
        batch = (self._drive(self.phase_batch, timed=True)
                 if self.phase_batch else None)

        for probe, writes in self.after_restart:
            self._disconnect()
            if self.trace_path:
                started = time.perf_counter()
                self.trace_exports.append(self.daemon.dump_trace())
                dumping_s += time.perf_counter() - started
            peak_rss = max(peak_rss, self.daemon.peak_rss_mb())
            # A respawned daemon counts from zero: keep what this one wrote.
            self.journal_bytes += loadgen.prometheus_sum(
                self._get("/metrics"), JOURNAL_BYTES)
            speed = yardstick()
            killed = time.perf_counter()
            self.daemon.kill()
            self._spawn()
            self._connect()
            first = self._drive([[probe]])
            restart = time.perf_counter() - killed
            restarts.append(restart * (speed + yardstick()) / 2)
            gate(first.failed == 0,
                 "first authenticated read after the restart did not succeed")
            self.tallies.append(first)
            restarted.extend(self._drive(writes, timed=True).slices)

        wall = time.perf_counter() - region_start - dumping_s
        if self.trace_path:
            self.trace_exports.append(self.daemon.dump_trace())
        peak_rss = max(peak_rss, self.daemon.peak_rss_mb())
        generator_cpu = time.process_time() - generator_cpu
        latencies = sorted(single.latencies_s)
        extras = {
            "lat_p50_ms": 1e3 * loadgen.percentile(latencies, 50),
            "lat_p99_ms": 1e3 * loadgen.percentile(latencies, 99),
            "lat_samples": len(latencies),
            "single_ops_per_s": phase_rate(single.slices),
            "batch_ops_per_s": phase_rate(batch.slices) if batch else 0.0,
            "loadgen_cpu_share": generator_cpu / wall,
            "region_wall_s": wall,
            "rejected_503": sum(t.rejected_503 for t in self.tallies),
        }
        if restarts:
            extras["restart_s"] = statistics.median(restarts)
        phases = [single.slices, batch.slices if batch else [], restarted]
        return Measured(
            phases=[phase for phase in phases if phase],
            failed=sum(t.failed + t.wrong_reads for t in self.tallies),
            peak_rss_mb=peak_rss, extras=extras)

    # -- correctness ----------------------------------------------------

    def check(self) -> dict:
        failed = sum(t.failed for t in self.tallies)
        wrong = sum(t.wrong_reads for t in self.tallies)
        gate(failed == 0, f"{failed} register ops failed or were refused")
        gate(wrong == 0,
             f"{wrong} reads returned a value the generator never wrote there")
        # Every written slot must end at the last value written to it.
        end_state: Dict[str, int] = {}
        readback = []
        for stream in self.streams:
            ops = [("read", switch, slot, 0, value)
                   for (switch, slot), value in sorted(stream.model.items())]
            for op in ops:
                end_state[f"{op[1]}/{op[2]}"] = op[4]
            readback.append([loadgen.batch_op(ops[i:i + 256])
                             for i in range(0, len(ops), 256)])
        tally = self._drive(readback)
        gate(tally.failed == 0 and tally.wrong_reads == 0,
             f"read-back: {tally.failed} failed, {tally.wrong_reads} slots do "
             "not hold the value written last (forged or lost write)")
        self.status = json.loads(self._get("/fleet/status"))
        self.journal_bytes += loadgen.prometheus_sum(
            self._get("/metrics"), JOURNAL_BYTES)
        fleet = self.status["fleet"]
        gate(fleet["failed"] == 0, f"daemon reports {fleet['failed']} failures")
        gate(fleet["submitted"] == fleet["completed"],
             "daemon has submitted ops without an outcome")
        if self.durable:
            gate(fleet["recovered_shards"] == SHARDS,
                 "a shard cold-started instead of recovering its state")
        return {"end_state": end_state,
                "ops": sum(t.ops for t in self.tallies)}

    def counts(self) -> Dict[str, float]:
        """What the daemon's public endpoints expose (the traced pass adds
        the view from inside)."""
        return {
            "service.daemon.rejected_503": self.status["fleet"]["rejected"],
            "store.journal.records": sum(
                shard.get("store", {}).get("journal_records", 0)
                for shard in self.status["shards"]),
            "store.journal.bytes": self.journal_bytes,
        }

    # -- teardown -------------------------------------------------------

    def close(self) -> None:
        """Connections first (SIGTERM with an open keep-alive connection
        makes the daemon log a CancelledError traceback), then drain."""
        try:
            if self.daemon is not None and self.daemon.proc is not None:
                self._disconnect()
                code = self.daemon.stop()
                gate(code == 0, f"daemon exited with {code} after the drain")
        finally:
            if self.daemon is not None:
                self.daemon.kill()
            if getattr(self, "loop", None) is not None:
                self.loop.close()
                self.loop = None
            if self.workdir is not None:
                if self.trace_exports and os.path.exists(self.trace_path):
                    # Written at exit: the one export that carries spans.
                    with open(self.trace_path) as handle:
                        self.trace_exports[-1]["spans"] = \
                            json.load(handle)["spans"]
                shutil.rmtree(self.workdir, ignore_errors=True)
