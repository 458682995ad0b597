"""The CRC-framed write-ahead journal: framing, healing, fsync, crashes."""

from __future__ import annotations

import os
import struct
import zlib

import pytest

from repro.store import journal as journal_module
from repro.store.journal import (
    FSYNC_POLICIES,
    Journal,
    JournalCorruption,
    MAX_PAYLOAD_BYTES,
    RECORD_TYPES,
)
from repro.telemetry.metrics import MetricRegistry


def fresh(tmp_path, **kwargs) -> Journal:
    journal = Journal(str(tmp_path / "wal"), **kwargs)
    journal.open()
    return journal


def active_segment(journal: Journal) -> str:
    return journal._active_path


@pytest.fixture
def small_segments(monkeypatch):
    """Segments of two or three frames, so size rotation is exercised."""
    monkeypatch.setattr(journal_module, "SEGMENT_MAX_BYTES", 160)


class TestAppendReplay:
    def test_roundtrip_preserves_order_types_and_data(self, tmp_path):
        journal = fresh(tmp_path)
        journal.append("key_install",
                       {"switch": "s1", "kind": "seed", "key": 7,
                        "version": 0}, durable=True)
        journal.append("seq_advance", {"switch": "s1", "horizon": 64},
                       durable=True)
        journal.append("batch_open", {"switch": "s1", "reg": "demo",
                                      "index": 3})
        journal.close()

        reopened = Journal(str(tmp_path / "wal"))
        records = reopened.open()
        assert [r.lsn for r in records] == [0, 1, 2]
        assert [r.type for r in records] == ["key_install", "seq_advance",
                                             "batch_open"]
        assert records[1].data == {"switch": "s1", "horizon": 64}
        assert reopened.next_lsn == 3
        assert reopened.torn_records == 0

    def test_unknown_record_type_refused(self, tmp_path):
        journal = fresh(tmp_path)
        with pytest.raises(ValueError, match="unknown record type"):
            journal.append("not_a_type", {})

    def test_append_after_close_refused(self, tmp_path):
        journal = fresh(tmp_path)
        journal.close()
        assert not journal.is_open
        with pytest.raises(RuntimeError, match="not open"):
            journal.append("seq_advance", {"switch": "s1", "horizon": 1})

    def test_every_declared_type_roundtrips(self, tmp_path):
        journal = fresh(tmp_path)
        for rec_type in RECORD_TYPES:
            journal.append(rec_type, {"switch": "s1", "kind": "seed",
                                      "key": 1, "version": 0, "horizon": 9,
                                      "reg": "r", "index": 0, "shard": "a",
                                      "switches": [], "epoch": 1})
        journal.close()
        records = Journal(str(tmp_path / "wal")).open()
        assert [r.type for r in records] == list(RECORD_TYPES)


class TestTornTail:
    def append_three(self, tmp_path):
        journal = fresh(tmp_path)
        for horizon in (10, 20, 30):
            journal.append("seq_advance",
                           {"switch": "s1", "horizon": horizon},
                           durable=True)
        path = active_segment(journal)
        journal.close()
        return path

    def test_truncated_header_heals_to_last_valid(self, tmp_path):
        path = self.append_three(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x05\x00")  # half a frame header
        reopened = Journal(str(tmp_path / "wal"))
        records = reopened.open()
        assert [r.data["horizon"] for r in records] == [10, 20, 30]
        assert reopened.torn_records == 1
        # The file was truncated back: a second open is clean.
        reopened.close()
        again = Journal(str(tmp_path / "wal"))
        again.open()
        assert again.torn_records == 0

    def test_short_payload_heals(self, tmp_path):
        path = self.append_three(tmp_path)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", 100, 0) + b"short")
        reopened = Journal(str(tmp_path / "wal"))
        assert len(reopened.open()) == 3
        assert reopened.torn_records == 1

    def test_crc_mismatch_on_final_record_heals(self, tmp_path):
        path = self.append_three(tmp_path)
        # Flip one payload byte of the final frame in place.
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(blob)
        reopened = Journal(str(tmp_path / "wal"))
        records = reopened.open()
        assert [r.data["horizon"] for r in records] == [10, 20]
        assert reopened.torn_records == 1

    def test_absurd_length_field_is_torn_not_allocated(self, tmp_path):
        path = self.append_three(tmp_path)
        with open(path, "ab") as handle:
            handle.write(struct.pack("<II", MAX_PAYLOAD_BYTES + 1, 0))
        reopened = Journal(str(tmp_path / "wal"))
        assert len(reopened.open()) == 3
        assert reopened.torn_records == 1

    def test_healed_journal_appends_contiguously(self, tmp_path):
        path = self.append_three(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"garbage")
        reopened = Journal(str(tmp_path / "wal"))
        reopened.open()
        record = reopened.append("seq_advance",
                                 {"switch": "s1", "horizon": 40},
                                 durable=True)
        assert record.lsn == 3
        reopened.close()
        records = Journal(str(tmp_path / "wal")).open()
        assert [r.lsn for r in records] == [0, 1, 2, 3]

    def test_sealed_segment_corruption_refuses(self, tmp_path):
        journal = fresh(tmp_path)
        journal.append("seq_advance", {"switch": "s1", "horizon": 1},
                       durable=True)
        sealed = active_segment(journal)
        journal.rotate()
        journal.append("seq_advance", {"switch": "s1", "horizon": 2},
                       durable=True)
        journal.close()
        blob = bytearray(open(sealed, "rb").read())
        blob[-1] ^= 0xFF
        with open(sealed, "wb") as handle:
            handle.write(blob)
        with pytest.raises(JournalCorruption, match="sealed segment"):
            Journal(str(tmp_path / "wal")).open()


class TestBadFrames:
    """Healing stops at the last frame: a bad frame with frames after it
    would drop acknowledged records, so it is corruption."""

    def write(self, tmp_path, n=10):
        journal = fresh(tmp_path)
        for _ in range(n):
            journal.append("batch_close", {"switch": "s1"}, durable=True)
        path = active_segment(journal)
        journal.close()
        return path

    @staticmethod
    def frame(payload: bytes) -> bytes:
        return struct.pack("<II", len(payload), zlib.crc32(payload)) + payload

    def test_crc_flip_mid_active_segment_refuses(self, tmp_path):
        path = self.write(tmp_path)
        blob = bytearray(open(path, "rb").read())
        frame_size = len(blob) // 10
        blob[3 * frame_size + frame_size - 1] ^= 0xFF  # record 3's payload
        with open(path, "wb") as handle:
            handle.write(blob)
        with pytest.raises(JournalCorruption, match="bytes after it"):
            Journal(str(tmp_path / "wal")).open()
        # Nothing was truncated: the acknowledged records are still there.
        assert open(path, "rb").read() == bytes(blob)

    @pytest.mark.parametrize("payload", [b"[]", b"7", b'"t"', b"null",
                                         b'{"t": "batch_close"}'])
    def test_crc_valid_non_record_as_last_frame_heals(self, tmp_path,
                                                      payload):
        path = self.write(tmp_path, n=3)
        with open(path, "ab") as handle:
            handle.write(self.frame(payload))
        reopened = Journal(str(tmp_path / "wal"))
        assert len(reopened.open()) == 3
        assert reopened.torn_records == 1

    def test_crc_valid_non_object_mid_segment_refuses(self, tmp_path):
        journal = fresh(tmp_path)
        journal.append("batch_close", {"switch": "s1"}, durable=True)
        path = active_segment(journal)
        journal.close()
        with open(path, "ab") as handle:
            handle.write(self.frame(b"[]"))
        journal = Journal(str(tmp_path / "wal"))
        journal.open(1)  # covered: the CRC vouches for it, not decoded
        journal.append("batch_close", {"switch": "s2"}, durable=True)
        journal.close()
        with pytest.raises(JournalCorruption, match="bytes after it"):
            Journal(str(tmp_path / "wal")).open()


class TestGapRefusal:
    """A journal that starts past the first LSN the reader needs has
    lost records; opening it refuses rather than replaying around them."""

    def compacted(self, tmp_path):
        journal = fresh(tmp_path)
        for epoch in range(1, 5):
            journal.append("epoch_advance", {"switch": "s1", "epoch": epoch})
            journal.rotate()
        journal.append("epoch_advance", {"switch": "s1", "epoch": 5})
        assert journal.compact(3) == 3
        journal.close()

    @pytest.mark.parametrize("after_lsn", [-1, 0, 1])
    def test_open_below_the_first_segment_refuses(self, tmp_path,
                                                  after_lsn):
        self.compacted(tmp_path)
        with pytest.raises(JournalCorruption, match="starts past LSN"):
            Journal(str(tmp_path / "wal")).open(after_lsn)

    @pytest.mark.parametrize("after_lsn", [2, 3, 4])
    def test_open_at_or_past_the_first_segment_reads_the_tail(
            self, tmp_path, after_lsn):
        self.compacted(tmp_path)
        journal = Journal(str(tmp_path / "wal"))
        tail = journal.open(after_lsn)
        assert [r.lsn for r in tail] == list(range(after_lsn + 1, 5))
        assert journal.next_lsn == 5

    def test_rotate_keeps_an_empty_active_segment(self, tmp_path):
        """A snapshot with nothing new to seal costs no file and no
        fsync."""
        metrics = MetricRegistry()
        journal = fresh(tmp_path, metrics=metrics, shard="s")
        journal.append("epoch_advance", {"switch": "s1", "epoch": 1})
        sealed = journal.rotate()
        fsyncs = metrics.get("store_fsync_seconds", shard="s").count
        assert journal.rotate() == sealed == active_segment(journal)
        assert metrics.get("store_fsync_seconds", shard="s").count == fsyncs
        assert [base for base, _ in journal._segments()] == [0, 1]


class TestFsyncDiscipline:
    def test_policies_are_validated(self, tmp_path):
        assert FSYNC_POLICIES == ("always", "batch", "never")
        with pytest.raises(ValueError):
            Journal(str(tmp_path / "wal"), fsync="sometimes")

    def test_always_has_zero_lag(self, tmp_path):
        journal = fresh(tmp_path, fsync="always")
        journal.append("batch_open", {"switch": "s1", "reg": "r",
                                      "index": 0})
        assert journal.lag == 0
        assert journal.durable_lsn == 0

    def test_batch_lag_grows_until_durable_record(self, tmp_path):
        journal = fresh(tmp_path, fsync="batch")
        journal.append("batch_open", {"switch": "s1", "reg": "r",
                                      "index": 0})
        journal.append("batch_close", {"switch": "s1"})
        assert journal.lag == 2
        # A durable record forces the group commit: everything before
        # it rides along.
        journal.append("seq_advance", {"switch": "s1", "horizon": 5},
                       durable=True)
        assert journal.lag == 0
        assert journal.durable_lsn == 2

    def test_sync_with_nothing_new_costs_no_fsync(self, tmp_path):
        """A sync after a sync, like the ``rotate()`` right after a
        snapshot's sync, flushes and fsyncs nothing but still marks
        everything durable."""
        metrics = MetricRegistry()
        journal = fresh(tmp_path, fsync="batch", metrics=metrics, shard="s")
        journal.append("batch_close", {"switch": "s1"})
        journal.sync()
        journal.sync()
        journal.rotate()
        assert metrics.get("store_fsync_seconds", shard="s").count == 1
        journal.skip_to(10)
        assert (journal.lag, journal.durable_lsn) == (0, 9)

    def test_simulate_crash_drops_exactly_the_unsynced_tail(self, tmp_path):
        journal = fresh(tmp_path, fsync="batch")
        journal.append("seq_advance", {"switch": "s1", "horizon": 5},
                       durable=True)
        journal.append("batch_open", {"switch": "s1", "reg": "r",
                                      "index": 0})
        journal.append("batch_close", {"switch": "s1"})
        journal.simulate_crash()
        assert not journal.is_open
        records = Journal(str(tmp_path / "wal")).open()
        assert [r.type for r in records] == ["seq_advance"]

    def test_never_policy_loses_everything_on_crash(self, tmp_path):
        journal = fresh(tmp_path, fsync="never")
        journal.append("seq_advance", {"switch": "s1", "horizon": 5},
                       durable=True)
        journal.simulate_crash()
        assert Journal(str(tmp_path / "wal")).open() == []


@pytest.mark.usefixtures("small_segments")
class TestSegments:
    def small(self, tmp_path, n=20):
        journal = fresh(tmp_path)
        for horizon in range(1, n + 1):
            journal.append("seq_advance",
                           {"switch": "s1", "horizon": horizon},
                           durable=True)
        return journal

    def test_rotation_splits_and_replay_spans_segments(self, tmp_path):
        journal = self.small(tmp_path)
        segment_count = len(journal._segments())
        assert segment_count > 1
        journal.close()
        records = Journal(str(tmp_path / "wal")).open()
        assert [r.lsn for r in records] == list(range(20))

    def test_compact_removes_only_covered_sealed_segments(self, tmp_path):
        journal = self.small(tmp_path)
        before = len(journal._segments())
        removed = journal.compact(journal.next_lsn)
        # Every sealed segment is covered; the active one survives.
        assert removed == before - 1
        assert len(journal._segments()) == 1
        surviving_base = journal._segments()[0][0]
        journal.close()
        # Replay after compaction starts at the surviving base LSN (a
        # reader that needs LSNs below it is refused: TestGapRefusal).
        reopened = Journal(str(tmp_path / "wal"))
        records = reopened.open(surviving_base - 1)
        assert records[0].lsn > 0
        assert records[-1].lsn == 19

    def test_compact_respects_upto_lsn(self, tmp_path):
        journal = self.small(tmp_path)
        segments = journal._segments()
        # A snapshot covering only the first segment deletes exactly it.
        first_next_base = segments[1][0]
        assert journal.compact(0) == 0
        assert journal.compact(first_next_base) == 1
        assert journal._segments()[0][0] == first_next_base

    def test_records_iterator_filters_by_lsn(self, tmp_path):
        journal = self.small(tmp_path, n=6)
        tail = list(journal.records(start_lsn=4))
        assert [r.lsn for r in tail] == [4, 5]

    def test_on_append_hook_fires_synchronously(self, tmp_path):
        journal = fresh(tmp_path)
        seen = []
        journal.on_append.append(lambda record: seen.append(record.type))
        journal.append("batch_open", {"switch": "s1", "reg": "r",
                                      "index": 0})
        assert seen == ["batch_open"]


class TestSkipTo:
    """The recovery LSN clamp: fresh records must never be assigned
    LSNs a surviving snapshot already covers."""

    def test_clamps_forward_and_compacts_covered_segments(self, tmp_path):
        journal = fresh(tmp_path)
        journal.append("epoch_advance", {"switch": "s1", "epoch": 1})
        journal.skip_to(100)
        assert journal.next_lsn == 100
        # The covered segment is gone; appends land at the clamped LSN.
        record = journal.append("seq_advance",
                                {"switch": "s1", "horizon": 7},
                                durable=True)
        assert record.lsn == 100
        journal.close()

        reopened = Journal(str(tmp_path / "wal"))
        records = reopened.open(99)  # the snapshot that forced the clamp
        assert [r.lsn for r in records] == [100]
        assert reopened.next_lsn == 101

    def test_skip_is_durable_before_any_append(self, tmp_path):
        """A crash right after the clamp must not resurrect the old LSN
        space: the empty active segment's base carries the skip."""
        journal = fresh(tmp_path)
        journal.append("epoch_advance", {"switch": "s1", "epoch": 1})
        journal.skip_to(64)
        journal.simulate_crash()
        reopened = Journal(str(tmp_path / "wal"))
        assert reopened.open(63) == []
        assert reopened.next_lsn == 64

    def test_not_ahead_is_a_noop(self, tmp_path):
        journal = fresh(tmp_path)
        journal.append("epoch_advance", {"switch": "s1", "epoch": 1})
        segments = len(journal._segments())
        journal.skip_to(1)
        journal.skip_to(0)
        assert journal.next_lsn == 1
        assert len(journal._segments()) == segments


@pytest.mark.usefixtures("small_segments")
class TestOpenAfter:
    """``open(after_lsn)``: every frame checked, only the tail decoded."""

    def write(self, tmp_path, n=20):
        journal = fresh(tmp_path)
        for horizon in range(1, n + 1):
            journal.append("seq_advance",
                           {"switch": "s1", "horizon": horizon},
                           durable=True)
        segments = journal._segments()
        journal.close()
        return segments

    def reopen(self, tmp_path, after_lsn=None, **kwargs):
        """Open and close; returns the journal, its LSNs as opened and
        the records ``open`` returned."""
        journal = Journal(str(tmp_path / "wal"), **kwargs)
        records = journal.open() if after_lsn is None \
            else journal.open(after_lsn)
        lsns = (journal.next_lsn, journal.durable_lsn)
        journal.close()
        return journal, lsns, records

    @staticmethod
    def flip_last_byte(path):
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(blob)

    @pytest.mark.parametrize("after_lsn", [-1, 0, 7, 18, 19, 25])
    def test_returns_exactly_the_tail(self, tmp_path, after_lsn):
        assert len(self.write(tmp_path)) > 2
        _, full_lsns, records = self.reopen(tmp_path)
        _, tail_lsns, tail = self.reopen(tmp_path, after_lsn)
        assert tail == [r for r in records if r.lsn > after_lsn]
        assert tail_lsns == full_lsns == (20, 19)

    def test_covered_crc_flip_in_sealed_segment_refuses(self, tmp_path):
        segments = self.write(tmp_path)
        self.flip_last_byte(segments[0][1])
        with pytest.raises(JournalCorruption, match="sealed segment"):
            self.reopen(tmp_path, after_lsn=19)

    def test_covered_torn_tail_heals_and_counts_once(self, tmp_path):
        segments = self.write(tmp_path)
        with open(segments[-1][1], "ab") as handle:
            handle.write(b"\x05\x00")  # half a frame header
        metrics = MetricRegistry()
        healed, _, tail = self.reopen(tmp_path, after_lsn=19,
                                      metrics=metrics, shard="s")
        assert tail == []
        assert healed.torn_records == 1
        assert metrics.value("store_journal_torn_records_total",
                             shard="s") == 1
        again, lsns, _ = self.reopen(tmp_path, after_lsn=19)
        assert again.torn_records == 0
        assert lsns == (20, 19)

    def test_covered_undecodable_frame_with_valid_crc_is_accepted(
            self, tmp_path):
        """The CRC proves a covered frame is the writer's bytes, so its
        payload is not parsed: only a full open refuses it."""
        journal = fresh(tmp_path)
        journal.append("epoch_advance", {"switch": "s1", "epoch": 1})
        sealed = active_segment(journal)
        journal.rotate()
        journal.append("epoch_advance", {"switch": "s1", "epoch": 2})
        journal.close()
        payload = b"not json"
        with open(sealed, "wb") as handle:
            handle.write(struct.pack("<II", len(payload),
                                     zlib.crc32(payload)) + payload)
        with pytest.raises(JournalCorruption, match="sealed segment"):
            Journal(str(tmp_path / "wal")).open()
        tail = Journal(str(tmp_path / "wal")).open(0)
        assert [(r.lsn, r.data["epoch"]) for r in tail] == [(1, 2)]
