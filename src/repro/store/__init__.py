"""Durable controller state — journal, snapshots, warm restart.

A production P4Auth controller holds exactly the state an operator
cannot afford to lose: master/session keys by version, per-switch
sequence numbers, and in-flight batch windows.  The switches, however,
keep *their* replay counters across a controller crash — so a restarted
controller that forgets where it was immediately trips the monotonic
``expected_seq`` replay defense it deployed (§IV/§VIII).  Recovery must
re-authenticate, never bypass, the defenses.

``repro.store`` is the durability layer: :mod:`~repro.store.recorder`
journals every durable change of a live controller **before it is acted
on** into :mod:`~repro.store.journal` (CRC32-framed, typed records);
:mod:`~repro.store.snapshot` checkpoints the state and lets the journal
drop what it covers; :mod:`~repro.store.state` holds the one pure
``apply_record`` that the recorder's mirror and recovery both fold
through; :mod:`~repro.store.recovery` rebuilds a controller from
snapshot + journal tail, resuming sequence numbers at the last durable
horizon and reconciling in-flight windows by authenticated reads;
:mod:`~repro.store.atomic` is the atomic-write idiom.

See DESIGN.md "Durability & warm restart" for record formats, the
fsync discipline, and the skip-ahead sequence rule.
"""

from repro.store.atomic import (
    TMP_SUFFIX,
    atomic_write_bytes,
    fsync_dir,
    sweep_orphan_tmp,
)
from repro.store.journal import (
    FSYNC_POLICIES,
    Journal,
    JournalCorruption,
    JournalRecord,
    RECORD_TYPES,
)
from repro.store.snapshot import SNAPSHOT_SCHEMA, SnapshotStore
from repro.store.state import StoreState, apply_record, replay_records
from repro.store.recorder import StateRecorder
from repro.store.recovery import (
    RecoveryReport,
    load_state,
    open_store,
    restore_dataplane,
    store_exists,
    warm_restart,
)

__all__ = [
    "FSYNC_POLICIES",
    "Journal",
    "JournalCorruption",
    "JournalRecord",
    "RECORD_TYPES",
    "RecoveryReport",
    "SNAPSHOT_SCHEMA",
    "SnapshotStore",
    "StateRecorder",
    "StoreState",
    "TMP_SUFFIX",
    "apply_record",
    "atomic_write_bytes",
    "fsync_dir",
    "load_state",
    "open_store",
    "replay_records",
    "restore_dataplane",
    "store_exists",
    "sweep_orphan_tmp",
    "warm_restart",
]
