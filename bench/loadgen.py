"""Load-generator side of the ``serve_*`` workloads.

A hand-rolled asyncio HTTP/1.1 keep-alive client (one process, one
event loop, no threads) and the daemon child's lifecycle.  Requests are
rendered to bytes — token included — before the timed region, so the
generator's own HalfSipHash work is not in the loop it times.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import signal
import subprocess
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

from repro.service.auth import RequestAuthenticator, TOKEN_HEADER
from repro.service.daemon import DEFAULT_SECRET

from bench.common import (
    ROOT,
    Slice,
    child_env,
    proc_cpu_s,
    proc_peak_rss_mb,
    python,
    yardstick,
)

HOST = "127.0.0.1"
#: A 503 is retried this many times (after the server's Retry-After is
#: cut to a short pause) before the op counts as refused.
RETRY_BUDGET = 3
RETRY_PAUSE_S = 0.01
LISTEN_TIMEOUT_S = 60.0
REQUEST_TIMEOUT_S = 30.0
#: A sampled phase is cut into slices this often.
SLICE_S = 0.25

_AUTH = RequestAuthenticator(DEFAULT_SECRET)


@dataclass
class Request:
    """One rendered HTTP request and what its response must say."""

    raw: bytes
    #: Register ops carried (1, or the size of a /v1/batch).
    ops: int
    #: Per op: the value a read must return, None for writes.
    expect: Tuple[Optional[int], ...]


def render(method: str, path: str, payload: Optional[dict] = None) -> bytes:
    body = (json.dumps(payload, sort_keys=True).encode("utf-8")
            if payload is not None else b"")
    head = (f"{method} {path} HTTP/1.1\r\n"
            f"Host: {HOST}\r\n"
            f"{TOKEN_HEADER}: {_AUTH.token(method, path, body)}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n")
    return head.encode("latin-1") + body


def single_op(kind: str, switch: str, slot: int, value: int,
              expect: Optional[int]) -> Request:
    payload = {"switch": switch, "register": "target", "index": slot}
    if kind == "write":
        payload["value"] = value
    return Request(render("POST", f"/v1/{kind}", payload), 1, (expect,))


def batch_op(ops: Sequence[Tuple[str, str, int, int, Optional[int]]]
             ) -> Request:
    items = []
    for kind, switch, slot, value, _expect in ops:
        item = {"kind": kind, "switch": switch, "register": "target",
                "index": slot}
        if kind == "write":
            item["value"] = value
        items.append(item)
    return Request(render("POST", "/v1/batch", {"ops": items}), len(ops),
                   tuple(op[4] for op in ops))


class Connection:
    """One keep-alive connection."""

    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def open(self) -> "Connection":
        self.reader, self.writer = await asyncio.open_connection(
            HOST, self.port)
        return self

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self.writer = None

    async def roundtrip(self, raw: bytes) -> Tuple[int, bytes]:
        """Send one request, read the full response: (status, body)."""
        self.writer.write(raw)
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        body = await self.reader.readexactly(length) if length else b""
        return status, body


@dataclass
class Tally:
    """Outcome of a closed-loop phase."""

    ops: int = 0
    failed: int = 0
    wrong_reads: int = 0
    rejected_503: int = 0
    latencies_s: Optional[List[float]] = None
    #: The phase cut into slices (see :data:`bench.common.Slice`).
    slices: List[Slice] = field(default_factory=list)


def _judge(request: Request, status: int, body: bytes, tally: Tally) -> None:
    tally.ops += request.ops
    if status != 200:
        tally.failed += request.ops
        return
    document = json.loads(body)
    results = document.get("results", [document])
    for result, expect in zip(results, request.expect):
        if not result.get("ok"):
            tally.failed += 1
        elif expect is not None and result.get("value") != expect:
            tally.wrong_reads += 1


async def _closed_loop(connection: Connection, requests: Sequence[Request],
                       tally: Tally) -> None:
    clock = time.perf_counter
    for request in requests:
        started = clock()
        status, body = await asyncio.wait_for(
            connection.roundtrip(request.raw), REQUEST_TIMEOUT_S)
        retries = 0
        while status == 503 and retries < RETRY_BUDGET:
            tally.rejected_503 += 1
            retries += 1
            await asyncio.sleep(RETRY_PAUSE_S)
            status, body = await asyncio.wait_for(
                connection.roundtrip(request.raw), REQUEST_TIMEOUT_S)
        if tally.latencies_s is not None:
            tally.latencies_s.append(clock() - started)
        _judge(request, status, body, tally)


async def drive(connections: Sequence[Connection],
                per_connection: Sequence[Sequence[Request]],
                keep_latencies: bool = False,
                daemon_cpu_s: Optional[Callable[[], float]] = None) -> Tally:
    """Closed loop: each connection sends its next request when the
    previous response is complete.

    With ``daemon_cpu_s`` (a reading of the daemon's CPU seconds so far)
    the phase is cut every :data:`SLICE_S` into ``tally.slices``, and the
    latencies kept are scaled to reference speed slice by slice.
    """
    tally = Tally(latencies_s=[] if keep_latencies else None)
    loops = [asyncio.ensure_future(_closed_loop(conn, requests, tally))
             for conn, requests in zip(connections, per_connection)]
    done = asyncio.gather(*loops)
    try:
        if daemon_cpu_s is None:
            await done
            return tally
        speed_before = yardstick()
        wall_mark, cpu_mark = time.perf_counter(), daemon_cpu_s()
        ops_mark = scaled = 0
        finished = False
        while not finished:
            finished = bool((await asyncio.wait({done}, timeout=SLICE_S))[0])
            if tally.ops == ops_mark:
                continue
            wall, cpu = time.perf_counter(), daemon_cpu_s()
            speed_after = yardstick()
            speed = (speed_before + speed_after) / 2
            tally.slices.append((tally.ops - ops_mark, wall - wall_mark,
                                 cpu - cpu_mark, speed))
            if tally.latencies_s is not None:
                kept = tally.latencies_s
                for index in range(scaled, len(kept)):
                    kept[index] *= speed
                scaled = len(kept)
            speed_before, ops_mark = speed_after, tally.ops
            wall_mark, cpu_mark = time.perf_counter(), daemon_cpu_s()
        done.result()
    finally:
        for task in loops:
            task.cancel()
    return tally


async def get_text(port: int, path: str) -> str:
    """Body of an authenticated GET on a connection of its own."""
    connection = await Connection(port).open()
    try:
        status, body = await connection.roundtrip(render("GET", path))
    finally:
        await connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} -> {status}")
    return body.decode("utf-8")


def prometheus_sum(text: str, metric: str) -> float:
    """Sum of every series of one metric in a Prometheus text page."""
    total = 0.0
    for line in text.splitlines():
        if line.startswith(metric) and line[len(metric):len(metric) + 1] \
                in ("{", " "):
            total += float(line.rsplit(" ", 1)[1])
    return total


class Daemon:
    """``python -m repro serve`` as a child (or its traced twin)."""

    def __init__(self, serve_args: Sequence[str], log_path: str,
                 trace_path: Optional[str] = None):
        if trace_path is None:
            self.command = [python(), "-m", "repro", "serve", *serve_args]
        else:
            self.command = [python(), str(ROOT / "bench" / "traced_entry.py"),
                            trace_path, "serve", *serve_args]
        self.log_path = log_path
        self.trace_path = trace_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._dumps = 0

    def start(self) -> float:
        """Spawn and wait for the listening line; returns seconds taken."""
        started = time.perf_counter()
        with open(self.log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.command, cwd=str(ROOT), env=child_env(),
                stdout=subprocess.PIPE, stderr=log)
        os.set_blocking(self.proc.stdout.fileno(), False)
        deadline = started + LISTEN_TIMEOUT_S
        buffered = b""
        while b"\n" not in buffered:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"listening (see {self.log_path})")
            if time.perf_counter() > deadline:
                self.kill()
                raise RuntimeError("daemon did not start listening in time")
            chunk = self.proc.stdout.read(4096)
            if chunk:
                buffered += chunk
            else:
                time.sleep(0.002)
        elapsed = time.perf_counter() - started
        # "# repro.service listening on http://127.0.0.1:<port>"
        self.port = int(buffered.split(b"\n", 1)[0].rsplit(b":", 1)[1])
        return elapsed

    def cpu_s(self) -> float:
        return proc_cpu_s(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def dump_trace(self) -> dict:
        """Ask a traced daemon for its tracer export (SIGUSR1)."""
        self._dumps += 1
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while time.perf_counter() < deadline:
            try:
                with open(self.trace_path) as handle:
                    document = json.load(handle)
                if document.get("dump") == self._dumps:
                    return document
            except (OSError, ValueError):
                pass
            time.sleep(0.005)
        raise RuntimeError("traced daemon did not answer SIGUSR1")

    def stop(self) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        if self.proc is None:
            return 0
        self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not drain after SIGTERM")
        code = self.proc.returncode
        self._release()
        return code

    def kill(self) -> None:
        """SIGKILL and reap (crash modelling, and every failure path)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._release()

    def _release(self) -> None:
        if self.proc is not None and self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


def percentile(sorted_values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    rank = math.ceil(pct / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]
