"""Append-only, CRC32-framed write-ahead journal with typed records.

Frame format (little-endian), one frame per record::

    +---------------+---------------+------------------------+
    | length (u32)  | crc32 (u32)   | payload (length bytes) |
    +---------------+---------------+------------------------+

``payload`` is canonical JSON ``{"t": <type>, "d": {...}}``; ``crc32``
is the reflected IEEE CRC-32 of the payload, computed with the repo's
own :class:`repro.crypto.crc.Crc32` engine (bit-exact with ``zlib``) —
the same primitive the P4Auth data plane uses for its digests.

Records live in numbered segment files ``journal-<base-lsn>.wal``; the
file name carries the LSN (log sequence number) of its first record, so
after a snapshot at LSN *L* every fully-covered segment can be deleted
(:meth:`Journal.compact`) without renumbering anything.  Rotation
(:meth:`Journal.rotate`) fsyncs and closes the active segment, then
creates the next one — a reader always sees whole segments.

Torn final records
------------------
A crash mid-append leaves a torn frame at the tail of the active
segment: a truncated header, a payload shorter than its length field,
or a payload whose CRC disagrees.  :meth:`Journal.open` does **not**
refuse to start — it truncates the segment back to the last valid
frame, counts the loss in ``torn_records`` (and the
``store_journal_torn_records_total`` metric), and appends from there.
A torn record was by definition never acknowledged as durable, so
dropping it is correct; crashing the controller *again* over it would
not be.

Fsync discipline
----------------
``fsync`` policy is one of :data:`FSYNC_POLICIES`:

- ``"always"`` — every append is flushed+fsynced before returning;
- ``"batch"`` — appends buffer; records marked ``durable=True`` (key
  material, sequence-horizon reservations) force a group commit, the
  rest ride along with the next one;
- ``"never"`` — no fsync (benchmark baselines and pure-replay tests).

``durable_lsn`` tracks the last record known to be on stable storage;
``lag`` (``next_lsn - durable_lsn - 1``… exposed as appended-but-not-
synced record count) feeds the ``store_journal_lag_records`` gauge.
:meth:`simulate_crash` models SIGKILL: the active segment is truncated
to the last *synced* byte and the in-memory handle dropped, so recovery
tests exercise exactly the durability the fsync policy bought.
"""

from __future__ import annotations

import json
import os
import struct
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.crypto.crc import Crc32
from repro.store.atomic import fsync_dir, sweep_orphan_tmp

#: Frame header: payload length, payload CRC-32 (both u32 LE).
_FRAME = struct.Struct("<II")

#: Segment file name pattern: the number is the segment's base LSN.
_SEGMENT_FMT = "journal-%012d.wal"
_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".wal"

#: Hard cap on one record's payload — a length field beyond this is
#: treated as corruption, not an allocation request.
MAX_PAYLOAD_BYTES = 1 << 24

FSYNC_POLICIES = ("always", "batch", "never")

#: The typed records the controller journals.  ``key_install`` covers
#: K_seed / K_auth / first K_local; ``key_rollover`` is a local-key
#: version flip on a switch that already had one; ``seq_advance`` is a
#: *reservation* — the controller promises never to use a sequence
#: number at or above ``horizon`` without journaling a new horizon
#: first; ``batch_open``/``batch_close`` bracket a switch's in-flight
#: issue window; ``shard_map`` records fleet ownership;
#: ``epoch_advance`` tracks the KMP's rollover epochs (one per completed
#: local-key update, whoever issued it).
RECORD_TYPES = (
    "key_install",
    "key_rollover",
    "seq_advance",
    "batch_open",
    "batch_close",
    "shard_map",
    "epoch_advance",
)

#: Buckets for the fsync latency histogram (seconds).
FSYNC_BUCKETS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1,
)

_CRC = Crc32()


class JournalCorruption(RuntimeError):
    """Corruption *before* the final record — the journal cannot tell
    which tail is trustworthy, so it refuses rather than guesses."""


@dataclass(frozen=True)
class JournalRecord:
    """One replayable journal entry."""

    lsn: int
    type: str
    data: Dict[str, object]


def _encode(rec_type: str, data: Dict[str, object]) -> bytes:
    payload = json.dumps({"t": rec_type, "d": data}, sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return _FRAME.pack(len(payload), _CRC.compute(payload)) + payload


def _decode_payload(payload: bytes, lsn: int) -> JournalRecord:
    document = json.loads(payload.decode("utf-8"))
    return JournalRecord(lsn=lsn, type=document["t"], data=document["d"])


class Journal:
    """The write-ahead journal over one state directory."""

    def __init__(self, root: str, *, fsync: str = "always",
                 segment_max_bytes: int = 4 << 20,
                 metrics=None, **metric_labels):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        if segment_max_bytes < len(_FRAME.pack(0, 0)) + 2:
            raise ValueError("segment_max_bytes is too small for any record")
        self.root = root
        self.fsync_policy = fsync
        self.segment_max_bytes = segment_max_bytes
        #: LSN the next appended record will get.
        self.next_lsn = 0
        #: Highest LSN known to be on stable storage (-1: none yet).
        self.durable_lsn = -1
        #: Records dropped by torn-tail truncation at open time.
        self.torn_records = 0
        #: Observers called with each freshly appended JournalRecord
        #: (the controller-crash fault action hooks here).
        self.on_append: List[Callable[[JournalRecord], None]] = []
        self._handle = None
        self._active_path: Optional[str] = None
        self._active_base = 0
        #: Byte offset within the active segment up to which content is
        #: known fsynced (simulate_crash truncates to this).
        self._synced_bytes = 0
        self._written_bytes = 0
        self._metrics = metrics if metrics is not None \
            and getattr(metrics, "enabled", False) else None
        self._labels = metric_labels
        self._opened = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(self) -> List[JournalRecord]:
        """Scan all segments, heal a torn tail, and arm for appends.

        Returns every valid record in LSN order (recovery replays them;
        a fresh journal returns ``[]``).  Also sweeps orphaned ``*.tmp``
        files that a killed snapshot writer may have left in the state
        directory.
        """
        if self._opened:
            raise RuntimeError("journal is already open")
        os.makedirs(self.root, exist_ok=True)
        sweep_orphan_tmp(self.root)
        records: List[JournalRecord] = []
        segments = self._segments()
        for index, (base, path) in enumerate(segments):
            final = index == len(segments) - 1
            seg_records = self._scan_segment(base, path, heal_tail=final)
            if seg_records and records \
                    and seg_records[0].lsn != records[-1].lsn + 1:
                raise JournalCorruption(
                    f"{self.root}: segment LSNs are not contiguous")
            records.extend(seg_records)
        self.next_lsn = records[-1].lsn + 1 if records else 0
        # An empty active segment *ahead* of the record stream is the
        # durable mark of :meth:`skip_to` — recovery clamped the LSN
        # space past a snapshot that covers records this journal never
        # held.  Resume there, never below it.
        if segments and segments[-1][0] > self.next_lsn:
            self.next_lsn = segments[-1][0]
        self.durable_lsn = self.next_lsn - 1
        fresh_segment = not segments
        if segments:
            self._active_base, self._active_path = segments[-1]
        else:
            self._active_base = self.next_lsn
            self._active_path = os.path.join(
                self.root, _SEGMENT_FMT % self._active_base)
        self._handle = open(self._active_path, "ab")
        if fresh_segment and self.fsync_policy != "never":
            fsync_dir(self.root)
        self._written_bytes = self._handle.tell()
        self._synced_bytes = self._written_bytes
        self._opened = True
        return records

    def close(self) -> None:
        if self._handle is not None:
            self.sync()
            self._handle.close()
            self._handle = None
        self._opened = False

    # ------------------------------------------------------------------
    # appends
    # ------------------------------------------------------------------

    def append(self, rec_type: str, data: Dict[str, object],
               durable: bool = False) -> JournalRecord:
        """Append one typed record; returns it with its LSN assigned.

        ``durable=True`` marks the record as a must-sync point under
        the ``"batch"`` policy (key material and sequence reservations
        must hit stable storage before the controller acts on them).
        """
        if not self._opened:
            raise RuntimeError("journal is not open")
        if rec_type not in RECORD_TYPES:
            raise ValueError(f"unknown record type {rec_type!r} "
                             f"(expected one of {RECORD_TYPES})")
        frame = _encode(rec_type, data)
        if self._written_bytes + len(frame) > self.segment_max_bytes \
                and self._written_bytes > 0:
            self.rotate()
        record = JournalRecord(lsn=self.next_lsn, type=rec_type,
                               data=dict(data))
        self._handle.write(frame)
        self._written_bytes += len(frame)
        self.next_lsn += 1
        if self.fsync_policy == "always" or \
                (durable and self.fsync_policy == "batch"):
            self.sync()
        if self._metrics is not None:
            self._metrics.counter("store_journal_records_total",
                                  type=rec_type, **self._labels).inc()
            self._metrics.counter("store_journal_bytes_total",
                                  **self._labels).inc(len(frame))
            self._metrics.gauge("store_journal_lag_records",
                                **self._labels).set(self.lag)
        for hook in list(self.on_append):
            hook(record)
        return record

    def sync(self) -> None:
        """Flush + fsync the active segment; advances ``durable_lsn``."""
        if self._handle is None:
            return
        self._handle.flush()
        if self.fsync_policy != "never":
            started = time.perf_counter()
            os.fsync(self._handle.fileno())
            if self._metrics is not None:
                self._metrics.histogram(
                    "store_fsync_seconds", buckets=FSYNC_BUCKETS,
                    **self._labels).observe(time.perf_counter() - started)
        self._synced_bytes = self._written_bytes
        self.durable_lsn = self.next_lsn - 1
        if self._metrics is not None:
            self._metrics.gauge("store_journal_lag_records",
                                **self._labels).set(0)

    @property
    def lag(self) -> int:
        """Appended-but-not-yet-durable record count."""
        return (self.next_lsn - 1) - self.durable_lsn

    @property
    def is_open(self) -> bool:
        return self._opened

    # ------------------------------------------------------------------
    # segment management
    # ------------------------------------------------------------------

    def rotate(self) -> str:
        """Seal the active segment and start the next; returns its path.

        The old segment is fsynced before the new one opens, so a
        reader never observes a sealed segment with a torn tail.
        """
        if not self._opened:
            raise RuntimeError("journal is not open")
        self.sync()
        self._handle.close()
        self._active_base = self.next_lsn
        self._active_path = os.path.join(self.root,
                                         _SEGMENT_FMT % self._active_base)
        self._handle = open(self._active_path, "ab")
        self._written_bytes = 0
        self._synced_bytes = 0
        if self.fsync_policy != "never":
            fsync_dir(self.root)
        return self._active_path

    def skip_to(self, lsn: int) -> None:
        """Clamp ``next_lsn`` forward to ``lsn`` (no-op when not ahead).

        Recovery calls this when a surviving snapshot covers LSNs the
        journal itself lost (e.g. a crash under ``fsync='batch'`` on a
        state dir written before snapshots forced a sync): fresh records
        must never be assigned LSNs the snapshot already covers, or the
        *next* recovery's tail replay would silently skip them.  The
        skip is made durable by sealing the active segment and opening a
        new one whose file name carries the clamped base LSN.
        """
        if not self._opened:
            raise RuntimeError("journal is not open")
        if lsn <= self.next_lsn:
            return
        self.next_lsn = lsn
        self.rotate()
        # Everything below the clamp is covered by the snapshot that
        # forced it; compacting immediately keeps the on-disk segment
        # chain contiguous (a gap before a *non-empty* segment reads as
        # corruption on the next open).
        self.compact(lsn)

    def compact(self, upto_lsn: int) -> int:
        """Delete sealed segments fully covered by a snapshot at
        ``upto_lsn`` (exclusive); returns how many files went away."""
        removed = 0
        segments = self._segments()
        for index, (base, path) in enumerate(segments):
            if path == self._active_path:
                continue
            next_base = segments[index + 1][0] if index + 1 < len(segments) \
                else self.next_lsn
            if next_base <= upto_lsn:
                os.unlink(path)
                removed += 1
        if removed and self.fsync_policy != "never":
            fsync_dir(self.root)
        return removed

    def simulate_crash(self) -> None:
        """Model SIGKILL: drop everything the OS had not fsynced.

        Truncates the active segment to the last synced byte and
        abandons the handle without the close-time sync.  After this
        the journal object is dead; recovery opens a fresh one.
        """
        if self._handle is None:
            return
        self._handle.flush()
        self._handle.close()
        self._handle = None
        with open(self._active_path, "ab") as handle:
            handle.truncate(self._synced_bytes)
        self._opened = False

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------

    def records(self, start_lsn: int = 0) -> Iterator[JournalRecord]:
        """Replay records with ``lsn >= start_lsn`` from disk."""
        if self._handle is not None:
            self._handle.flush()
        for index, (base, path) in enumerate(self._segments()):
            for record in self._scan_segment(base, path, heal_tail=False,
                                             count_torn=False):
                if record.lsn >= start_lsn:
                    yield record

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _segments(self) -> List[Tuple[int, str]]:
        entries: List[Tuple[int, str]] = []
        if not os.path.isdir(self.root):
            return entries
        for name in os.listdir(self.root):
            if not (name.startswith(_SEGMENT_PREFIX)
                    and name.endswith(_SEGMENT_SUFFIX)):
                continue
            digits = name[len(_SEGMENT_PREFIX):-len(_SEGMENT_SUFFIX)]
            try:
                base = int(digits)
            except ValueError:
                continue
            entries.append((base, os.path.join(self.root, name)))
        entries.sort()
        return entries

    def _scan_segment(self, base: int, path: str, heal_tail: bool,
                      count_torn: bool = True) -> List[JournalRecord]:
        """Decode one segment; optionally truncate a torn final frame.

        Corruption anywhere but the final frame of the final segment is
        a :class:`JournalCorruption` — healing there would silently
        drop acknowledged records.
        """
        records: List[JournalRecord] = []
        with open(path, "rb") as handle:
            blob = handle.read()
        offset = 0
        lsn = base
        valid_end = 0
        torn = False
        while offset < len(blob):
            header = blob[offset:offset + _FRAME.size]
            if len(header) < _FRAME.size:
                torn = True
                break
            length, crc = _FRAME.unpack(header)
            if length > MAX_PAYLOAD_BYTES:
                torn = True
                break
            payload = blob[offset + _FRAME.size:offset + _FRAME.size + length]
            if len(payload) < length or _CRC.compute(payload) != crc:
                torn = True
                break
            try:
                records.append(_decode_payload(payload, lsn))
            except (ValueError, KeyError):
                torn = True
                break
            lsn += 1
            offset += _FRAME.size + length
            valid_end = offset
        if torn:
            trailing = len(blob) - valid_end
            if not heal_tail:
                raise JournalCorruption(
                    f"{path}: corrupt frame at offset {valid_end} "
                    f"({trailing} trailing bytes) in a sealed segment")
            if count_torn:
                self.torn_records += 1
                if self._metrics is not None:
                    self._metrics.counter(
                        "store_journal_torn_records_total",
                        **self._labels).inc()
            with open(path, "ab") as handle:
                handle.truncate(valid_end)
        return records


__all__ = [
    "FSYNC_BUCKETS",
    "FSYNC_POLICIES",
    "Journal",
    "JournalCorruption",
    "JournalRecord",
    "MAX_PAYLOAD_BYTES",
    "RECORD_TYPES",
]
