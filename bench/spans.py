"""Spans recorded from outside the program.

Nothing under ``src/`` is edited: :func:`install` replaces the layers'
public entry points with wrappers that open a span, call the original and
close the span; :func:`uninstall` puts the originals back.  A span has a
name, a layer (the module name the metric dictionary uses), start, end,
the span that caused it and the id of the root of its synchronous call
tree.  A layer's self time is the sum over its spans of duration minus
the part their child spans cover; it is aggregated as spans close, and
the first :data:`KEEP_SPANS` spans are kept for the trace file.

Leaf helpers called millions of times (``Packet.size_bytes``,
``crypto/ops.py``) are deliberately not wrapped: their cost stays in the
caller's self time and the isolated probes cover them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, Iterable, List, Optional, Tuple

KEEP_SPANS = 50_000

#: Every layer the metric dictionary names, in reporting order.
LAYERS = (
    "net.simulator", "net.network", "dataplane.switch", "dataplane.packet",
    "systems", "crypto", "core.digest", "core.auth_dataplane",
    "core.controller", "core.kmp", "core.wire", "runtime.batch", "store",
    "service.http", "service.auth", "service.daemon", "engine",
)

# A kept span: (id, name, layer, start, end, parent id or -1, root id).
Span = Tuple[int, str, str, float, float, int, int]


class Tracer:
    """Span stack with on-the-fly per-layer self-time totals."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep: int = KEEP_SPANS):
        self.clock = clock
        self.keep = keep
        self.enabled = False
        self.reset()

    def reset(self) -> None:
        #: layer -> [self seconds, calls]
        self.totals: Dict[str, List[float]] = {}
        self.spans: List[Span] = []
        self.opened = 0
        # Open frames: [id, name, layer, start, child seconds, root id].
        self._stack: List[list] = []

    def enter(self, name: str, layer: str,
              start: Optional[float] = None) -> None:
        """Open a span (``start`` backdates it to a time already read)."""
        stack = self._stack
        span_id = self.opened
        self.opened = span_id + 1
        root = stack[-1][5] if stack else span_id
        stack.append([span_id, name, layer,
                      self.clock() if start is None else start, 0.0, root])

    def exit(self, count_call: bool = True) -> None:
        end = self.clock()
        stack = self._stack
        span_id, name, layer, start, child_s, root = stack.pop()
        duration = end - start
        total = self.totals.get(layer)
        if total is None:
            total = self.totals[layer] = [0.0, 0]
        total[0] += duration - child_s
        if count_call:
            total[1] += 1
        parent = -1
        if stack:
            stack[-1][4] += duration
            parent = stack[-1][0]
        if len(self.spans) < self.keep:
            self.spans.append((span_id, name, layer, start, end, parent, root))

    # -- readings -------------------------------------------------------

    def self_s(self, layer: str) -> float:
        return self.totals.get(layer, (0.0, 0))[0]

    def calls(self, layer: str) -> int:
        return int(self.totals.get(layer, (0.0, 0))[1])

    def covered_s(self) -> float:
        """Sum of every layer's self time (= total time under a root)."""
        return sum(total[0] for total in self.totals.values())

    def export(self) -> dict:
        return {"totals": {layer: list(total)
                           for layer, total in self.totals.items()},
                "opened": self.opened, "spans": self.spans}

    def merge(self, exported: dict, sign: int = 1) -> None:
        """Fold another process's export into this tracer (``sign=-1``
        takes a baseline export back out; its spans are not kept)."""
        for layer, (self_s, calls) in exported["totals"].items():
            total = self.totals.setdefault(layer, [0.0, 0])
            total[0] += sign * self_s
            total[1] += sign * calls
        self.opened += sign * exported["opened"]
        if sign > 0:
            room = self.keep - len(self.spans)
            self.spans.extend(tuple(s) for s in exported["spans"][:room])

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, name, layer, start, end, parent, root in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "layer": layer,
                    "start": start, "end": end, "parent": parent,
                    "root": root}) + "\n")


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Per-span self time from a finished span list (duration minus the
    coverage of direct children) — the arithmetic the tracer does on the
    fly, kept separately so tests can check one against the other."""
    spans = list(spans)
    own = {span[0]: span[4] - span[3] for span in spans}
    for span_id, _name, _layer, start, end, parent, _root in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def layer_self_times(spans: Iterable[Span]) -> Dict[str, float]:
    spans = list(spans)
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span[2]] = totals.get(span[2], 0.0) + own[span[0]]
    return totals


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

#: The tracer the installed wrappers report to (None: nothing installed).
ACTIVE: Optional[Tracer] = None


def _wrap_sync(tracer: Tracer, fn: Callable, name: str, layer: str):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return traced


class _Steps:
    """Awaitable that drives a coroutine and spans each resume step.

    A coroutine's wall time spans awaits during which other tasks run, so
    one span per call would cover unrelated work; each synchronous step
    between two suspensions is its own span (the call is counted once).
    """

    def __init__(self, tracer: Tracer, coro, name: str, layer: str):
        self.tracer, self.coro = tracer, coro
        self.name, self.layer = name, layer

    def __await__(self):
        tracer, name, layer = self.tracer, self.name, self.layer
        inner = self.coro.__await__()
        send, throw = inner.send, inner.throw
        value, error, first = None, None, True
        while True:
            tracer.enter(name, layer)
            try:
                if error is not None:
                    yielded = throw(error)
                else:
                    yielded = send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit(count_call=first)
                first = False
            value, error = None, None
            try:
                value = yield yielded
            except BaseException as exc:  # noqa: BLE001 - forwarded into coro
                error = exc


def _wrap_async(tracer: Tracer, fn: Callable, name: str, layer: str):
    @functools.wraps(fn)
    async def traced(*args, **kwargs):
        if not tracer.enabled:
            return await fn(*args, **kwargs)
        return await _Steps(tracer, fn(*args, **kwargs), name, layer)
    return traced


def span_fn(fn: Callable, name: str, layer: str) -> Callable:
    """Wrap a benchmark-side callable when (and only when) tracing is on."""
    if ACTIVE is None:
        return fn
    return _wrap_sync(ACTIVE, fn, name, layer)


#: Systems programs install one pipeline stage each under these names.
_SYSTEM_STAGES = {"hula", "l3fwd", "blink", "routescout", "int", "aggregate",
                  "netwarden", "silkroad", "netcache"}


def stage_layer(stage_name: str) -> str:
    if stage_name.startswith("p4auth"):
        return "core.auth_dataplane"
    if stage_name in _SYSTEM_STAGES:
        return "systems"
    return "runtime"


#: (module, class or None, attribute, layer, is coroutine).  Public entry
#: points of each layer, plus the two private coroutines that own the
#: daemon's time between requests (connection handler, shard loop).
TARGETS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.net.simulator", "EventSimulator", "run", "net.simulator", False),
    ("repro.net.network", "Network", "transmit", "net.network", False),
    ("repro.net.network", "Network", "send_packet_out", "net.network", False),
    ("repro.net.network", "Network", "send_packet_in", "net.network", False),
    ("repro.net.network", "SwitchNode", "receive", "net.network", False),
    ("repro.net.links", "Link", "transit", "net.network", False),
    ("repro.dataplane.switch", "DataplaneSwitch", "process",
     "dataplane.switch", False),
    ("repro.dataplane.switch", "DataplaneSwitch", "process_many",
     "dataplane.switch", False),
    ("repro.dataplane.pipeline", "Pipeline", "run", "dataplane.switch", False),
    ("repro.dataplane.packet", "Packet", "copy", "dataplane.packet", False),
    ("repro.dataplane.packet", "Packet", "serialize", "dataplane.packet",
     False),
    ("repro.dataplane.externs", "HashExtern", "compute_digest", "crypto",
     False),
    ("repro.dataplane.externs", "HashExtern", "compute_digest_bytes",
     "crypto", False),
    ("repro.crypto.halfsiphash", "HalfSipHash", "digest", "crypto", False),
    ("repro.crypto.halfsiphash", "HalfSipHash", "digest_from_state", "crypto",
     False),
    ("repro.crypto.halfsiphash", "HalfSipHash", "digest_words", "crypto",
     False),
    ("repro.crypto.crc", "Crc32", "compute", "crypto", False),
    ("repro.crypto.crc", "Crc32", "compute_keyed", "crypto", False),
    ("repro.crypto.vectorized", None, "digest_many", "crypto", False),
    ("repro.crypto.vectorized", None, "digest_many_from_state", "crypto",
     False),
    ("repro.crypto.vectorized", None, "crc32_many", "crypto", False),
    ("repro.crypto.vectorized", None, "crc32_many_keyed", "crypto", False),
    ("repro.crypto.kdf", "Kdf", "derive", "crypto", False),
    ("repro.crypto.modified_dh", None, "dh_public", "crypto", False),
    ("repro.crypto.modified_dh", None, "dh_shared", "crypto", False),
    ("repro.core.digest", "DigestEngine", "compute", "core.digest", False),
    ("repro.core.digest", "DigestEngine", "sign", "core.digest", False),
    ("repro.core.digest", "DigestEngine", "verify", "core.digest", False),
    ("repro.core.digest", "DigestEngine", "compute_many", "core.digest",
     False),
    ("repro.core.digest", "DigestEngine", "sign_many", "core.digest", False),
    ("repro.core.digest", "DigestEngine", "verify_many", "core.digest",
     False),
    ("repro.core.controller", "P4AuthController", "read_register",
     "core.controller", False),
    ("repro.core.controller", "P4AuthController", "write_register",
     "core.controller", False),
    ("repro.core.controller", "P4AuthController", "request_many",
     "core.controller", False),
    ("repro.core.controller", "P4AuthController", "handle_packet_in",
     "core.controller", False),
    ("repro.core.kmp", "KeyManagementProtocol", "local_key_init", "core.kmp",
     False),
    ("repro.core.kmp", "KeyManagementProtocol", "local_key_update",
     "core.kmp", False),
    ("repro.core.kmp", "KeyManagementProtocol", "port_key_init", "core.kmp",
     False),
    ("repro.core.kmp", "KeyManagementProtocol", "port_key_update", "core.kmp",
     False),
    ("repro.core.kmp", "KeyManagementProtocol", "bootstrap_all", "core.kmp",
     False),
    ("repro.core.kmp", "KeyManagementProtocol", "handle_message", "core.kmp",
     False),
    ("repro.core.wire", None, "serialize_message", "core.wire", False),
    ("repro.core.wire", None, "parse_message", "core.wire", False),
    ("repro.runtime.batch", "BatchController", "submit_many", "runtime.batch",
     False),
    ("repro.runtime.batch", "BatchController", "read_register",
     "runtime.batch", False),
    ("repro.runtime.batch", "BatchController", "write_register",
     "runtime.batch", False),
    ("repro.store.journal", "Journal", "append", "store", False),
    ("repro.store.journal", "Journal", "sync", "store", False),
    ("repro.store.journal", "Journal", "rotate", "store", False),
    ("repro.store.journal", "Journal", "compact", "store", False),
    ("repro.store.snapshot", "SnapshotStore", "save", "store", False),
    ("repro.store.recovery", None, "warm_restart", "store", False),
    ("repro.service.daemon", "ControllerService", "dispatch",
     "service.daemon", True),
    ("repro.service.shard", "ShardWorker", "submit", "service.daemon", False),
    ("repro.service.shard", "ShardWorker", "_run", "service.daemon", True),
    ("repro.service.auth", "RequestAuthenticator", "verify", "service.auth",
     False),
    ("repro.service.http", "HttpServer", "_handle_connection", "service.http",
     True),
    ("repro.engine.runner", None, "run_experiment", "engine", False),
    ("repro.engine.runner", "Runner", "run", "engine", False),
    ("repro.engine.artifact", None, "write_artifact", "engine", False),
)

# (owner object, attribute, original) for everything install() replaced.
_installed: List[Tuple[object, str, object]] = []


def _replace(owner, attribute: str, replacement) -> None:
    _installed.append((owner, attribute, owner.__dict__[attribute]))
    setattr(owner, attribute, replacement)


def _rebind_importers(module, attribute: str, original, replacement) -> None:
    """A module-level function is also bound wherever it was imported by
    name; rebind those so callers reach the wrapper."""
    for name, other in list(sys.modules.items()):
        if other is None or other is module or not name.startswith("repro"):
            continue
        if other.__dict__.get(attribute) is original:
            _replace(other, attribute, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every entry in :data:`TARGETS` and the pipeline stage hooks."""
    global ACTIVE
    if ACTIVE is not None:
        raise RuntimeError("span wrappers are already installed")
    ACTIVE = tracer
    for module_name, class_name, attribute, layer, is_async in TARGETS:
        module = importlib.import_module(module_name)
        owner = getattr(module, class_name) if class_name else module
        original = owner.__dict__[attribute]
        label = f"{class_name or module_name.rsplit('.', 1)[1]}.{attribute}"
        wrap = _wrap_async if is_async else _wrap_sync
        replacement = wrap(tracer, original, label, layer)
        _replace(owner, attribute, replacement)
        if class_name is None:
            _rebind_importers(module, attribute, original, replacement)

    from repro.dataplane.pipeline import Pipeline
    add_stage = Pipeline.__dict__["add_stage"]
    insert_stage = Pipeline.__dict__["insert_stage"]

    @functools.wraps(add_stage)
    def traced_add_stage(self, name, fn):
        return add_stage(self, name, _wrap_sync(
            tracer, fn, f"stage.{name}", stage_layer(name)))

    @functools.wraps(insert_stage)
    def traced_insert_stage(self, index, name, fn):
        return insert_stage(self, index, name, _wrap_sync(
            tracer, fn, f"stage.{name}", stage_layer(name)))

    _replace(Pipeline, "add_stage", traced_add_stage)
    _replace(Pipeline, "insert_stage", traced_insert_stage)


def uninstall() -> None:
    """Restore every original (objects built meanwhile keep pass-through
    wrappers: the tracer they report to is switched off)."""
    global ACTIVE
    while _installed:
        owner, attribute, original = _installed.pop()
        setattr(owner, attribute, original)
    if ACTIVE is not None:
        ACTIVE.enabled = False
    ACTIVE = None
