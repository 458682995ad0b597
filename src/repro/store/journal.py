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
file name carries the LSN (log sequence number) of its first record.
:meth:`Journal.rotate` fsyncs and closes the active segment, then
creates the next one, so a reader always sees whole segments.  The
recorder rotates at every snapshot (a no-op on an empty segment) and
then deletes every sealed segment the *oldest* kept snapshot covers
(:meth:`Journal.compact`): the newest snapshot's fallback always finds
its tail, and the journal holds about two snapshot intervals.  Without
snapshots a segment rotates at :data:`SEGMENT_MAX_BYTES`.

Opening past a snapshot
-----------------------
``open(after_lsn)`` decodes only the records past a snapshot's
``applied_lsn``; covered frames are still length- and CRC-checked under
the rules below.  So a covered frame whose CRC verifies but whose JSON
does not parse is accepted (the CRC proves it is the writer's bytes),
where a full ``open()`` refuses or truncates it.  A first segment that
starts past ``after_lsn + 1`` is a gap, :class:`JournalCorruption`: the
records between were compacted or lost, and the reader needs them.

Healing a torn tail
-------------------
A crash mid-append leaves a torn frame at the tail of the active
segment.  :meth:`Journal.open` truncates it back to the last valid
frame, counts the loss in ``torn_records`` (and the
``store_journal_torn_records_total`` metric), and appends from there,
when the frame has a short header or payload, a length that runs past
the end of the file, or is the last frame and fails its CRC or decode
check.  A frame that fails its CRC or decode check with bytes after it,
or any bad frame in a sealed segment, is :class:`JournalCorruption`:
truncating there would drop records already acknowledged as durable.

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
from typing import Callable, Dict, List, Optional, Tuple

from repro.crypto.crc import Crc32
from repro.store.atomic import fsync_dir, numbered_files, sweep_orphan_tmp
from repro.telemetry import NULL_TELEMETRY, MetricRegistry

#: Frame header: payload length, payload CRC-32 (both u32 LE).
_FRAME = struct.Struct("<II")

#: Segment file name pattern: the number is the segment's base LSN.
_SEGMENT_FMT = "journal-%012d.wal"
_SEGMENT_PREFIX = "journal-"
_SEGMENT_SUFFIX = ".wal"

#: Hard cap on one record's payload — a length field beyond this is
#: treated as corruption, not an allocation request.
MAX_PAYLOAD_BYTES = 1 << 24

#: An active segment rotates before it grows past this: it bounds one
#: segment's read when no snapshot seals the journal sooner.
SEGMENT_MAX_BYTES = 4 << 20

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
    """Corruption *before* the final record, or a gap before the first
    — the journal cannot tell which records are trustworthy, so it
    refuses rather than guesses."""


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
                 metrics: MetricRegistry = NULL_TELEMETRY.metrics,
                 **metric_labels):
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}")
        self.root = root
        self.fsync_policy = fsync
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
        self._records_total = {
            rec_type: metrics.bind_counter("store_journal_records_total",
                                           type=rec_type, **metric_labels)
            for rec_type in RECORD_TYPES}
        self._bytes_total = metrics.bind_counter(
            "store_journal_bytes_total", **metric_labels)
        self._lag_records = metrics.bind_gauge(
            "store_journal_lag_records", **metric_labels)
        self._fsync_seconds = metrics.bind_histogram(
            "store_fsync_seconds", buckets=FSYNC_BUCKETS, **metric_labels)
        self._torn_total = metrics.bind_counter(
            "store_journal_torn_records_total", **metric_labels)
        self._opened = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def open(self, after_lsn: int = -1) -> List[JournalRecord]:
        """Scan all segments, heal a torn tail, and arm for appends.

        Returns the valid records past ``after_lsn`` in LSN order: all
        of them by default; recovery passes the ``applied_lsn`` of the
        snapshot it replays onto, and a fresh journal returns ``[]``.
        Every frame is checked, but only the returned ones are decoded;
        a gap or corruption the tail rule does not heal raises
        :class:`JournalCorruption`.  Also sweeps orphaned ``*.tmp``
        files that a killed snapshot writer may have left.
        """
        if self._opened:
            raise RuntimeError("journal is already open")
        os.makedirs(self.root, exist_ok=True)
        sweep_orphan_tmp(self.root)
        segments = self._segments()
        records, self.next_lsn = self._read(segments, after_lsn,
                                            heal_tail=True)
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
        if self._written_bytes + len(frame) > SEGMENT_MAX_BYTES \
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
        self._records_total[rec_type].inc()
        self._bytes_total.inc(len(frame))
        self._lag_records.set(self.lag)
        for hook in list(self.on_append):
            hook(record)
        return record

    def sync(self) -> None:
        """Flush + fsync the active segment; advances ``durable_lsn``.
        With nothing written since the last sync there is nothing to
        flush or fsync."""
        if self._handle is None:
            return
        if self._written_bytes != self._synced_bytes:
            self._handle.flush()
            if self.fsync_policy != "never":
                started = time.perf_counter()
                os.fsync(self._handle.fileno())
                self._fsync_seconds.observe(time.perf_counter() - started)
            self._synced_bytes = self._written_bytes
        self.durable_lsn = self.next_lsn - 1
        self._lag_records.set(0)

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
        reader never observes a sealed segment with a torn tail.  An
        active segment that holds no record stays active.
        """
        if not self._opened:
            raise RuntimeError("journal is not open")
        if self._active_base == self.next_lsn:
            return self._active_path
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
        journal lost, so no fresh record reuses one (the next recovery's
        tail replay would skip it).  Sealing the active segment makes the
        skip durable: the new one's file name carries the clamped LSN.
        """
        if not self._opened:
            raise RuntimeError("journal is not open")
        if lsn <= self.next_lsn:
            return
        self.next_lsn = lsn
        self.rotate()
        self.compact(lsn)  # below the clamp only the snapshot counts

    def compact(self, upto_lsn: int) -> int:
        """Delete sealed segments holding only LSNs below ``upto_lsn``;
        returns how many files went away."""
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

    def records(self, start_lsn: int = 0) -> List[JournalRecord]:
        """Read records with ``lsn >= start_lsn`` back from disk."""
        if self._handle is not None:
            self._handle.flush()
        return self._read(self._segments(), start_lsn - 1,
                          heal_tail=False)[0]

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _segments(self) -> List[Tuple[int, str]]:
        return numbered_files(self.root, _SEGMENT_PREFIX, _SEGMENT_SUFFIX)

    def _read(self, segments: List[Tuple[int, str]], after_lsn: int,
              heal_tail: bool) -> Tuple[List[JournalRecord], int]:
        """Scan ``segments`` in order (``heal_tail``: the final one may
        heal); returns the records past ``after_lsn`` and the LSN after
        the last valid frame (0: none).  Frame counts check the chain,
        which must start at or below ``after_lsn + 1``."""
        records: List[JournalRecord] = []
        end = 0
        if segments and segments[0][0] > after_lsn + 1:
            raise JournalCorruption(
                f"{segments[0][1]}: the journal starts past LSN "
                f"{after_lsn + 1}, which the reader needs")
        for index, (base, path) in enumerate(segments):
            final = heal_tail and index == len(segments) - 1
            frames = self._scan_segment(base, path, after_lsn, final,
                                        records)
            if frames:
                if end and base != end:
                    raise JournalCorruption(
                        f"{self.root}: segment LSNs are not contiguous")
                end = base + frames
        return records, end

    def _scan_segment(self, base: int, path: str, after_lsn: int,
                      heal_tail: bool, records: List[JournalRecord]) -> int:
        """Check one segment's frames, appending the ones past
        ``after_lsn`` to ``records`` decoded; returns the valid frames.

        Every frame is length- and CRC-checked; a covered one is not
        decoded.  Only the final segment (``heal_tail``) heals, and only
        a frame that is cut short or is its last; any other bad frame is
        a :class:`JournalCorruption`.
        """
        with open(path, "rb") as handle:
            blob = handle.read()
        offset = 0
        lsn = base
        while offset + _FRAME.size <= len(blob):
            length, crc = _FRAME.unpack_from(blob, offset)
            end = offset + _FRAME.size + length
            if end > len(blob):
                break
            payload = blob[offset + _FRAME.size:end]
            try:
                if length > MAX_PAYLOAD_BYTES or _CRC.compute(payload) != crc:
                    raise ValueError("bad frame")
                if lsn > after_lsn:
                    records.append(_decode_payload(payload, lsn))
            except (ValueError, KeyError, TypeError):  # TypeError: not a dict
                if heal_tail and end < len(blob):
                    raise JournalCorruption(
                        f"{path}: corrupt frame at offset {offset} has "
                        f"{len(blob) - end} bytes after it")
                break
            lsn += 1
            offset = end
        if offset < len(blob):
            if not heal_tail:
                raise JournalCorruption(
                    f"{path}: corrupt frame at offset {offset} "
                    f"({len(blob) - offset} trailing bytes) in a sealed "
                    f"segment")
            self.torn_records += 1
            self._torn_total.inc()
            with open(path, "ab") as handle:
                handle.truncate(offset)
        return lsn - base


__all__ = [
    "FSYNC_BUCKETS",
    "FSYNC_POLICIES",
    "Journal",
    "JournalCorruption",
    "JournalRecord",
    "MAX_PAYLOAD_BYTES",
    "RECORD_TYPES",
    "SEGMENT_MAX_BYTES",
]
