"""Compacted snapshots of the controller's durable state.

A snapshot is one JSON document — schema tag, the serialized
:class:`~repro.store.state.StoreState`, and an embedded CRC-32 over the
canonical body — written with the atomic-write idiom
(:func:`~repro.store.atomic.atomic_write_bytes`, which fsyncs) so a
crash mid-snapshot can never surface a torn file under the committed
name.  File names carry the covered LSN (``snapshot-<lsn>.json``):
recovery loads the newest one whose checksum verifies and replays only
the journal tail past its ``applied_lsn``.

Corruption handling mirrors the journal's philosophy: a snapshot that
fails its checksum (disk fault, partial ancient write) is *skipped with
a warning metric*, falling back to the previous generation — recovery
prefers replaying a longer tail over refusing to start.  ``keep``
generations are retained precisely so that fallback exists.
"""

from __future__ import annotations

import json
import os
from typing import List, Optional, Tuple

from repro.crypto.crc import Crc32
from repro.store.atomic import (
    atomic_write_bytes,
    fsync_dir,
    sweep_orphan_tmp,
)
from repro.store.state import StoreState

SNAPSHOT_SCHEMA = "repro-store-snapshot/1"

_SNAPSHOT_FMT = "snapshot-%012d.json"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"

_CRC = Crc32()


def _canonical_body(state_doc: dict) -> bytes:
    return json.dumps(state_doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class SnapshotStore:
    """Atomic, checksummed snapshot files under one directory."""

    def __init__(self, root: str, *, keep: int = 2, metrics=None,
                 **metric_labels):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = root
        self.keep = keep
        self._metrics = metrics if metrics is not None \
            and getattr(metrics, "enabled", False) else None
        self._labels = metric_labels
        os.makedirs(self.root, exist_ok=True)
        # A killed writer's mkstemp leftovers.
        sweep_orphan_tmp(self.root)

    # ------------------------------------------------------------------

    def save(self, state: StoreState) -> str:
        """Write a snapshot covering ``state.applied_lsn``; returns path.

        Prunes generations beyond ``keep`` afterwards — never before
        the new one is durably committed.
        """
        body = state.to_dict()
        document = {
            "schema": SNAPSHOT_SCHEMA,
            "crc32": _CRC.compute(_canonical_body(body)),
            "state": body,
        }
        path = os.path.join(
            self.root, _SNAPSHOT_FMT % (state.applied_lsn + 1))
        atomic_write_bytes(
            path,
            json.dumps(document, sort_keys=True, indent=1).encode("utf-8"))
        if self._metrics is not None:
            self._metrics.counter("store_snapshots_total",
                                  **self._labels).inc()
        self._prune()
        return path

    def load_latest(self) -> Optional[StoreState]:
        """Newest snapshot whose checksum verifies, else ``None``.

        A corrupt generation is counted (``store_snapshot_corrupt_total``)
        and skipped in favour of the one before it.
        """
        for _lsn, path in reversed(self._snapshots()):
            state = self._load(path)
            if state is not None:
                return state
        return None

    # ------------------------------------------------------------------

    def _load(self, path: str) -> Optional[StoreState]:
        try:
            with open(path, "rb") as handle:
                document = json.loads(handle.read().decode("utf-8"))
            if document.get("schema") != SNAPSHOT_SCHEMA:
                raise ValueError("unknown snapshot schema")
            body = document["state"]
            if _CRC.compute(_canonical_body(body)) != document["crc32"]:
                raise ValueError("snapshot checksum mismatch")
            return StoreState.from_dict(body)
        except (OSError, ValueError, KeyError, TypeError):
            if self._metrics is not None:
                self._metrics.counter("store_snapshot_corrupt_total",
                                      **self._labels).inc()
            return None

    def _snapshots(self) -> List[Tuple[int, str]]:
        entries: List[Tuple[int, str]] = []
        if not os.path.isdir(self.root):
            return entries
        for name in os.listdir(self.root):
            if not (name.startswith(_SNAPSHOT_PREFIX)
                    and name.endswith(_SNAPSHOT_SUFFIX)):
                continue
            digits = name[len(_SNAPSHOT_PREFIX):-len(_SNAPSHOT_SUFFIX)]
            try:
                lsn = int(digits)
            except ValueError:
                continue
            entries.append((lsn, os.path.join(self.root, name)))
        entries.sort()
        return entries

    def _prune(self) -> None:
        snapshots = self._snapshots()
        removed = 0
        for _lsn, path in snapshots[:-self.keep]:
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        if removed:
            fsync_dir(self.root)


__all__ = ["SNAPSHOT_SCHEMA", "SnapshotStore"]
