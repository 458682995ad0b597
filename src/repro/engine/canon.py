"""Canonical JSON: the common currency of the experiment engine.

Every trial result, derived seed, and ``BENCH_*.json`` artifact flows
through :func:`to_jsonable` and :func:`canonical_json`, so that

- serial and parallel runs of the same trial matrix are *bit-identical*
  (key order, float formatting, and container types are all pinned), and
- content hashes (:func:`content_hash`) are stable across processes and
  Python versions in use here.

The conversion is deliberately strict: anything that is not obviously
representable (an open socket, a simulator...) raises ``TypeError``
instead of being repr()-stringified, because a lossy artifact is worse
than a failed run.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
from typing import Any

#: Schema tag stamped into every artifact.
SCHEMA = "repro-bench/1"


def to_jsonable(value: Any) -> Any:
    """Recursively convert ``value`` into canonical JSON-ready data.

    Dataclasses become field dicts, mappings get string keys, tuples and
    sets become (sorted, for sets) lists, and non-finite floats become
    the strings ``"nan"``/``"inf"``/``"-inf"`` (JSON has no spelling for
    them, and ``json.dumps`` would otherwise emit non-standard tokens
    that ``json.loads`` accepts but other tooling rejects).
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: to_jsonable(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {_key(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_jsonable(v) for v in value)
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} value {value!r}; "
        "trial results must be JSON-representable")


def _key(key: Any) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, bool):
        return "true" if key else "false"
    if isinstance(key, (int, float)):
        return str(key)
    if isinstance(key, tuple):
        return "/".join(_key(part) for part in key)
    raise TypeError(f"cannot canonicalize mapping key {key!r}")


def canonical_json(value: Any) -> str:
    """Deterministic JSON text: sorted keys, no whitespace variance."""
    return json.dumps(to_jsonable(value), sort_keys=True,
                      separators=(",", ":"), ensure_ascii=True)


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("ascii")).hexdigest()
