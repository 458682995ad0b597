"""The controller service: shard routing, fleet ops, status, metrics.

:class:`ControllerService` is the long-running daemon (DESIGN.md
"Controller service").  It owns a named switch fleet, partitions it
across N :class:`~repro.service.shard.ShardWorker` instances with the
bounded-load consistent-hash :class:`~repro.service.shardmap.ShardMap`,
and exposes one request surface, :meth:`dispatch`, consumed by both the
asyncio HTTP codec (:mod:`repro.service.http`) and the in-process
:class:`~repro.service.client.ServiceClient` — so the authenticated
path is identical no matter how a request arrives.

Endpoints (all JSON unless noted):

=====================  ======================================================
``POST /v1/read``      ``{switch, register, index}`` -> ``{ok, value}``
``POST /v1/write``     ``{switch, register, index, value}`` -> ``{ok}``
``POST /v1/batch``     ``{ops: [...]}`` -> ``{results: [...]}`` (FIFO order)
``POST /v1/rollover``  ``{switch?}`` -> per-switch key versions (P4Auth)
``GET /fleet/status``  shard table + fleet aggregates
``GET /metrics``       Prometheus text (unauthenticated scrape endpoint)
``GET /healthz``       liveness probe (unauthenticated)
=====================  ======================================================

Status codes: 401 bad/missing token, 400 malformed request or an op
outside the fleet's register schema (index past the array, value wider
than the cell), 404 unknown route/switch, 503 shard overload, draining
or failed (``Retry-After`` hint).
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.controller import OUTSTANDING_THRESHOLD
from repro.store.journal import FSYNC_POLICIES
from repro.runtime.comparison import STACKS
from repro.service.auth import RequestAuthenticator, TOKEN_HEADER
from repro.service.shard import ShardOp, ShardOverload, ShardWorker
from repro.service.shardmap import ShardMap
from repro.telemetry import Telemetry

#: Development default; real deployments pass their own secret.
DEFAULT_SECRET = "p4auth-service-dev"

JSON_TYPE = "application/json"
#: Prometheus text exposition content type.
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Caps a single /v1/batch request (backpressure belongs to the shard
#: queues; this just bounds one request's memory).
MAX_BATCH_OPS = 4096


@dataclass(frozen=True)
class FleetConfig:
    """Everything that defines one service deployment."""

    stack: str = "P4Auth"
    #: Fleet size; switches are named ``sw0 .. sw<m-1>``.
    m: int = 25
    shards: int = 2
    registers: Tuple[Tuple[str, int, int], ...] = (("target", 64, 16),)
    #: Per-switch pipelining window inside each shard's issue engine.
    max_in_flight: int = 8
    #: Per-shard cap on total in-flight requests (DoS-budget share).
    issue_window: int = 32
    #: Bounded intake queue per shard; beyond it -> 503.
    queue_depth: int = 1024
    seed: int = 1
    auth_secret: str = DEFAULT_SECRET
    #: Root of the durable-state tree; each shard journals under
    #: ``<state_dir>/<shard_id>/``.  None: shards are in-memory only.
    state_dir: Optional[str] = None
    #: Journal fsync policy (see :data:`repro.store.FSYNC_POLICIES`).
    fsync: str = "batch"
    #: Auto-snapshot cadence in journal records (None: manual only).
    snapshot_every: Optional[int] = 256

    def __post_init__(self):
        if self.stack not in STACKS:
            raise ValueError(f"stack must be one of {STACKS}")
        if self.m < 1:
            raise ValueError("fleet needs at least one switch")
        if not 1 <= self.shards <= self.m:
            raise ValueError("need 1 <= shards <= m")
        for name in ("max_in_flight", "issue_window", "queue_depth"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.stack == "P4Auth" \
                and self.issue_window * 2 > OUTSTANDING_THRESHOLD:
            raise ValueError(
                f"issue_window={self.issue_window} would crowd the "
                f"outstanding-request DoS budget ({OUTSTANDING_THRESHOLD}); "
                "add shards instead")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError("snapshot_every must be None or >= 1")
        if self.fsync not in FSYNC_POLICIES:
            raise ValueError(f"fsync must be one of {FSYNC_POLICIES}")
        if self.state_dir is not None and self.stack != "P4Auth":
            raise ValueError(
                "state_dir requires the P4Auth stack (the journal "
                "records P4Auth key/sequence state)")

    def shard_state_dir(self, shard_id: str) -> Optional[str]:
        if self.state_dir is None:
            return None
        return os.path.join(self.state_dir, shard_id)

    @property
    def switch_names(self) -> List[str]:
        return [f"sw{i}" for i in range(self.m)]

    @property
    def shard_ids(self) -> List[str]:
        return [f"shard-{i}" for i in range(self.shards)]


@dataclass
class _Route:
    """One resolved endpoint: handler + whether it mutates state."""

    handler: object
    authenticated: bool = True


class ControllerService:
    """The sharded P4Auth controller daemon (in-process core)."""

    def __init__(self, config: FleetConfig = FleetConfig(),
                 telemetry: Optional[Telemetry] = None):
        self.config = config
        self.telemetry = telemetry if telemetry is not None \
            else Telemetry(enabled=True)
        self.auth = RequestAuthenticator(config.auth_secret)
        self.shard_map = ShardMap(config.shard_ids)
        self.assignment = self.shard_map.assign(config.switch_names)
        self._owner: Dict[str, str] = {
            switch: shard for shard, switches in self.assignment.items()
            for switch in switches
        }
        self.workers: Dict[str, ShardWorker] = {
            shard_id: ShardWorker(
                shard_id, self.assignment[shard_id],
                stack_name=config.stack,
                # Distinct, deterministic seed space per shard.
                seed=config.seed + 7919 * index,
                registers=config.registers,
                max_in_flight=config.max_in_flight,
                issue_window=config.issue_window,
                queue_depth=config.queue_depth,
                state_dir=config.shard_state_dir(shard_id),
                fsync=config.fsync,
                snapshot_every=config.snapshot_every,
                metrics=self.telemetry.metrics,
            )
            for index, shard_id in enumerate(config.shard_ids)
        }
        self._registers = {name: (width, size)
                           for name, width, size in config.registers}
        self._started_monotonic: Optional[float] = None
        self._stopping = False
        self._routes = {
            ("POST", "/v1/read"): _Route(self._handle_read),
            ("POST", "/v1/write"): _Route(self._handle_write),
            ("POST", "/v1/batch"): _Route(self._handle_batch),
            ("POST", "/v1/rollover"): _Route(self._handle_rollover),
            ("GET", "/fleet/status"): _Route(self._handle_status),
            ("GET", "/metrics"): _Route(self._handle_metrics,
                                        authenticated=False),
            ("GET", "/healthz"): _Route(self._handle_healthz,
                                        authenticated=False),
        }

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> None:
        """Build and bootstrap every shard, then start their workers."""
        for worker in self.workers.values():
            await worker.start()
            # Let the loop breathe between (synchronous) shard builds.
            await asyncio.sleep(0)
        self._started_monotonic = time.monotonic()

    async def stop(self) -> None:
        """Graceful drain: refuse new work, finish what's queued."""
        self._stopping = True
        await asyncio.gather(*(worker.stop()
                               for worker in self.workers.values()))

    @property
    def draining(self) -> bool:
        return self._stopping

    @property
    def idle(self) -> bool:
        return all(worker.idle for worker in self.workers.values())

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------

    def owner_of(self, switch: str) -> str:
        """The shard id owning ``switch`` (KeyError if not in fleet)."""
        return self._owner[switch]

    def worker_for(self, switch: str) -> ShardWorker:
        return self.workers[self.owner_of(switch)]

    def _submit(self, op: ShardOp) -> asyncio.Future:
        if self._stopping:
            raise ShardOverload("service", "draining")
        return self.worker_for(op.switch).submit(op)

    # ------------------------------------------------------------------
    # programmatic API (what dispatch and tests build on)
    # ------------------------------------------------------------------

    async def read(self, switch: str, register: str = "target",
                   index: int = 0) -> Tuple[bool, int]:
        return await self._submit(ShardOp("read", switch, register, index))

    async def write(self, switch: str, register: str, index: int,
                    value: int) -> Tuple[bool, int]:
        return await self._submit(
            ShardOp("write", switch, register, index, value))

    async def rollover(self, switch: Optional[str] = None
                       ) -> Dict[str, Dict[str, object]]:
        """Roll the local key of one switch (or the whole fleet).

        Rollover ops ride the same per-shard FIFO as register traffic,
        so a switch's rollover is ordered against its in-flight
        requests; the two-version key consistency rule (§VI-C) keeps
        concurrent requests under the previous key verifiable.
        """
        if self.config.stack != "P4Auth":
            raise ValueError(
                f"stack {self.config.stack!r} has no key management")
        targets = [switch] if switch is not None \
            else list(self.config.switch_names)
        # Submit everything first: per-shard FIFO order is the target
        # order.
        futures = [self._submit(ShardOp("rollover", name))
                   for name in targets]
        outcomes = await asyncio.gather(*futures)
        return {
            name: {"ok": ok, "key_version": version}
            for name, (ok, version) in zip(targets, outcomes)
        }

    def status(self) -> Dict[str, object]:
        shards = [self.workers[shard_id].status()
                  for shard_id in self.config.shard_ids]
        fleet = {
            "stack": self.config.stack,
            "switches": self.config.m,
            "shards": self.config.shards,
            "submitted": sum(s["submitted"] for s in shards),
            "completed": sum(s["completed"] for s in shards),
            "failed": sum(s["failed"] for s in shards),
            "rejected": sum(s["rejected"] for s in shards),
            "state_dir": self.config.state_dir,
            "recovered_shards": sum(
                1 for worker in self.workers.values() if worker.recovered),
            "draining": self._stopping,
            "uptime_s": (time.monotonic() - self._started_monotonic
                         if self._started_monotonic is not None else 0.0),
        }
        return {"fleet": fleet, "shards": shards}

    def metrics_text(self) -> str:
        """The service registry in Prometheus text format."""
        # Refresh sampled gauges at scrape time so an idle scrape still
        # sees current depths.
        metrics = self.telemetry.metrics
        for shard_id, worker in self.workers.items():
            if worker.batch is not None:
                metrics.gauge("service_shard_in_flight",
                              shard=shard_id).set(
                    worker.status()["in_flight"])
                metrics.gauge("service_shard_queue_depth",
                              shard=shard_id).set(
                    worker.status()["queued"])
        return self.telemetry.render_prometheus()

    # ------------------------------------------------------------------
    # the shared dispatch surface (HTTP codec + in-process client)
    # ------------------------------------------------------------------

    async def dispatch(self, method: str, path: str, body: bytes,
                       headers: Dict[str, str]
                       ) -> Tuple[int, str, bytes]:
        """Authenticate, route, and execute one request.

        Returns ``(status, content_type, body_bytes)``.  This is the
        only way in — the HTTP server and ServiceClient are thin codecs
        over it, so they cannot diverge on auth or semantics.
        """
        route = self._routes.get((method.upper(), path))
        if route is None:
            return self._error(404, f"no route {method} {path}")
        if route.authenticated:
            token = headers.get(TOKEN_HEADER, "")
            if not self.auth.verify(method, path, body, token):
                return self._error(401, "bad or missing X-P4Auth-Token")
        try:
            payload = json.loads(body.decode("utf-8")) if body else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return self._error(400, f"malformed JSON body: {exc}")
        if not isinstance(payload, dict):
            return self._error(400, "request body must be a JSON object")
        try:
            return await route.handler(payload)
        except KeyError as exc:
            return self._error(404, f"unknown switch {exc.args[0]!r}")
        except ShardOverload as exc:
            return self._error(503, str(exc))
        except ValueError as exc:
            return self._error(400, str(exc))

    # -- handlers -------------------------------------------------------

    def _validate_op(self, payload: Dict[str, object],
                     need_value: bool) -> ShardOp:
        switch = payload.get("switch")
        if not isinstance(switch, str):
            raise ValueError("'switch' must be a string")
        if switch not in self._owner:
            raise KeyError(switch)
        register = payload.get("register", "target")
        if not isinstance(register, str) or register not in self._registers:
            raise ValueError(
                f"unknown register {register!r} "
                f"(fleet schema: {sorted(self._registers)})")
        # The op must fit the register it names (``bool`` is an ``int``
        # to Python but not to this schema).
        width, size = self._registers[register]
        index = payload.get("index", 0)
        if type(index) is not int or not 0 <= index < size:
            raise ValueError(
                f"'index' must be an integer in [0, {size}) for "
                f"register {register!r}")
        value = payload.get("value", 0)
        if need_value and (type(value) is not int
                           or not 0 <= value < 1 << width):
            raise ValueError(
                f"'value' must be an integer in [0, 2**{width}) for "
                f"register {register!r}")
        kind = "write" if need_value else "read"
        return ShardOp(kind, switch, register, index,
                       value if need_value else 0)

    async def _handle_read(self, payload) -> Tuple[int, str, bytes]:
        op = self._validate_op(payload, need_value=False)
        ok, value = await self._submit(op)
        return self._json(200, {"ok": ok, "switch": op.switch,
                                "register": op.reg_name, "index": op.index,
                                "value": value if ok else None})

    async def _handle_write(self, payload) -> Tuple[int, str, bytes]:
        op = self._validate_op(payload, need_value=True)
        ok, _ = await self._submit(op)
        return self._json(200, {"ok": ok, "switch": op.switch,
                                "register": op.reg_name, "index": op.index})

    async def _handle_batch(self, payload) -> Tuple[int, str, bytes]:
        ops_in = payload.get("ops")
        if not isinstance(ops_in, list) or not ops_in:
            raise ValueError("'ops' must be a non-empty list")
        if len(ops_in) > MAX_BATCH_OPS:
            raise ValueError(f"batch too large (max {MAX_BATCH_OPS} ops)")
        ops: List[ShardOp] = []
        for item in ops_in:
            if not isinstance(item, dict):
                raise ValueError("each op must be an object")
            kind = item.get("kind")
            if kind not in ("read", "write"):
                raise ValueError(
                    f"op kind must be 'read' or 'write', got {kind!r}")
            ops.append(self._validate_op(item, need_value=kind == "write"))
        # Submit synchronously, in list order, so per-switch FIFO is the
        # client's op order; rejected ops fail individually (the earlier
        # ops in the batch are already owed an outcome).
        futures: List[object] = []
        for op in ops:
            try:
                futures.append(self._submit(op))
            except ShardOverload:
                futures.append(None)
        results = []
        for op, future in zip(ops, futures):
            if future is None:
                results.append({"ok": False, "rejected": True,
                                "switch": op.switch})
                continue
            ok, value = await future
            entry = {"ok": ok, "rejected": False, "switch": op.switch}
            if op.kind == "read":
                entry["value"] = value if ok else None
            results.append(entry)
        status = 503 if results and all(r["rejected"] for r in results) \
            else 200
        return self._json(status, {"results": results})

    async def _handle_rollover(self, payload) -> Tuple[int, str, bytes]:
        switch = payload.get("switch")
        if switch is not None:
            if not isinstance(switch, str):
                raise ValueError("'switch' must be a string")
            if switch not in self._owner:
                raise KeyError(switch)
        rolled = await self.rollover(switch)
        return self._json(200, {"ok": all(r["ok"] for r in rolled.values()),
                                "rolled": rolled})

    async def _handle_status(self, _payload) -> Tuple[int, str, bytes]:
        return self._json(200, self.status())

    async def _handle_metrics(self, _payload) -> Tuple[int, str, bytes]:
        return 200, METRICS_TYPE, self.metrics_text().encode("utf-8")

    async def _handle_healthz(self, _payload) -> Tuple[int, str, bytes]:
        return self._json(200, {"ok": not self._stopping})

    # -- response helpers ----------------------------------------------

    @staticmethod
    def _json(status: int, document) -> Tuple[int, str, bytes]:
        return status, JSON_TYPE, (json.dumps(document, sort_keys=True)
                                   .encode("utf-8"))

    @staticmethod
    def _error(status: int, message: str) -> Tuple[int, str, bytes]:
        return ControllerService._json(status, {"ok": False,
                                                "error": message})


__all__ = [
    "ControllerService",
    "DEFAULT_SECRET",
    "FleetConfig",
    "JSON_TYPE",
    "MAX_BATCH_OPS",
    "METRICS_TYPE",
]
