"""Property: snapshot + tail replay ≡ full-journal replay (hypothesis).

The recorder maintains its snapshot source through the same pure
``apply_record`` fold recovery uses, so the in-memory halves agree by
construction — what these properties pin is the **disk round-trip**:
encode → CRC-frame → segment files → scan → decode → fold, with a
snapshot cut at an arbitrary point, equals folding every record, for
arbitrary operation sequences, also when the journal decodes only the
tail past the snapshot.  Plus: replay is idempotent from any
snapshot base, and a simulated crash only ever truncates (records that
survive are a strict prefix).
"""

from __future__ import annotations

import os
import tempfile

import pytest

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.store.journal import Journal  # noqa: E402
from repro.store.snapshot import SnapshotStore  # noqa: E402
from repro.store.state import replay_records  # noqa: E402

SWITCHES = st.sampled_from(["s1", "s2", "s3"])
KEYS = st.integers(min_value=1, max_value=2**64 - 1)
VERSIONS = st.integers(min_value=0, max_value=1)

RECORDS = st.one_of(
    st.tuples(st.just("key_install"), SWITCHES,
              st.sampled_from(["seed", "auth", "local"]), KEYS, VERSIONS)
      .map(lambda t: (t[0], {"switch": t[1], "kind": t[2], "key": t[3],
                             "version": t[4]})),
    st.tuples(st.just("key_rollover"), SWITCHES, KEYS, VERSIONS)
      .map(lambda t: (t[0], {"switch": t[1], "key": t[2],
                             "version": t[3]})),
    st.tuples(st.just("seq_advance"), SWITCHES,
              st.integers(min_value=1, max_value=2**32 - 1))
      .map(lambda t: (t[0], {"switch": t[1], "horizon": t[2]})),
    st.tuples(st.just("batch_open"), SWITCHES,
              st.integers(min_value=0, max_value=15))
      .map(lambda t: (t[0], {"switch": t[1], "reg": "demo",
                             "index": t[2]})),
    st.tuples(st.just("batch_close"), SWITCHES)
      .map(lambda t: (t[0], {"switch": t[1]})),
    st.tuples(st.just("shard_map"), st.sampled_from(["a", "b"]),
              st.lists(SWITCHES, max_size=3, unique=True))
      .map(lambda t: (t[0], {"shard": t[1], "switches": t[2]})),
    st.tuples(st.just("epoch_advance"), SWITCHES,
              st.integers(min_value=1, max_value=50))
      .map(lambda t: (t[0], {"switch": t[1], "epoch": t[2]})),
)

OPS = st.lists(RECORDS, min_size=1, max_size=40)
#: Indices of the ops after which the journal rotates (seals a segment),
#: so multi-segment scans get exercised.
ROTATIONS = st.sets(st.integers(min_value=0, max_value=40), max_size=8)

RELAXED = settings(max_examples=50, deadline=None, derandomize=True,
                   suppress_health_check=[HealthCheck.too_slow])


def journal_to_disk(root, ops, rotations):
    """Write every op through a real journal, rotating after the ops
    ``rotations`` names, returning the replayed records."""
    journal = Journal(os.path.join(root, "wal"))
    journal.open()
    for index, (rec_type, data) in enumerate(ops):
        journal.append(rec_type, data, durable=True)
        if index in rotations:
            journal.rotate()
    journal.close()
    reopened = Journal(os.path.join(root, "wal"))
    records = reopened.open()
    reopened.close()
    return records


@given(ops=OPS, cut=st.integers(min_value=0, max_value=40),
       rotations=ROTATIONS)
@RELAXED
def test_snapshot_plus_tail_equals_full_replay(ops, cut, rotations):
    cut = min(cut, len(ops))
    with tempfile.TemporaryDirectory() as root:
        records = journal_to_disk(root, ops, rotations)
        assert len(records) == len(ops)

        full = replay_records(records)

        # Snapshot the state at the cut, round-trip it through disk,
        # then replay only the tail on top.
        base = replay_records(records[:cut])
        snapshots = SnapshotStore(os.path.join(root, "snaps"))
        snapshots.save(base)
        loaded = snapshots.load_latest()
        assert loaded is not None
        resumed = replay_records(records, loaded)

        assert resumed.to_dict() == full.to_dict()


@given(ops=OPS, cut=st.integers(min_value=0, max_value=40),
       rotations=ROTATIONS)
@RELAXED
def test_snapshot_plus_opened_tail_equals_full_open(ops, cut, rotations):
    """Recovery's own path: the tail ``open(after_lsn)`` decodes, folded
    onto the snapshot, equals replaying everything a full ``open()``
    returns."""
    cut = min(cut, len(ops))
    with tempfile.TemporaryDirectory() as root:
        records = journal_to_disk(root, ops, rotations)
        full = replay_records(records)

        snapshots = SnapshotStore(os.path.join(root, "snaps"))
        snapshots.save(replay_records(records[:cut]))
        loaded = snapshots.load_latest()
        journal = Journal(os.path.join(root, "wal"))
        tail = journal.open(loaded.applied_lsn)
        journal.close()

        assert [r.lsn for r in tail] == list(range(cut, len(ops)))
        assert replay_records(tail, loaded).to_dict() == full.to_dict()


@given(ops=OPS, rotations=ROTATIONS)
@RELAXED
def test_replay_is_idempotent_over_the_snapshot_prefix(ops, rotations):
    """Handing the *whole* journal to a snapshot-seeded replay must not
    double-apply the prefix (records at or below applied_lsn skip)."""
    with tempfile.TemporaryDirectory() as root:
        records = journal_to_disk(root, ops, rotations)
        full = replay_records(records)
        again = replay_records(records, full.copy())
        assert again.to_dict() == full.to_dict()


@given(ops=OPS, synced=st.integers(min_value=0, max_value=40),
       rotations=ROTATIONS)
@RELAXED
def test_crash_survivors_are_a_strict_prefix(ops, synced, rotations):
    """simulate_crash never reorders or corrupts — whatever survives is
    exactly the records the fsync policy had made durable."""
    synced = min(synced, len(ops))
    with tempfile.TemporaryDirectory() as root:
        journal = Journal(os.path.join(root, "wal"), fsync="batch")
        journal.open()
        for index, (rec_type, data) in enumerate(ops):
            journal.append(rec_type, data, durable=index < synced)
            if index in rotations:
                journal.rotate()
        journal.simulate_crash()

        survivors = Journal(os.path.join(root, "wal")).open()
        assert len(survivors) >= synced
        for record, (rec_type, data) in zip(survivors, ops):
            assert record.type == rec_type
            assert record.data == data
