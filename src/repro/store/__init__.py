"""Durable controller state — journal, snapshots, warm restart.

A production P4Auth controller holds exactly the state an operator
cannot afford to lose: master/session keys by version, per-switch
sequence numbers, and in-flight batch windows.  The switches, however,
keep *their* replay counters across a controller crash — so a restarted
controller that forgets where it was immediately trips the monotonic
``expected_seq`` replay defense it deployed (§IV/§VIII).  Recovery must
re-authenticate, never bypass, the defenses.

``repro.store`` is the durability layer:

- :mod:`repro.store.atomic` — the atomic-write / orphan-``*.tmp`` sweep
  idiom;
- :mod:`repro.store.journal` — an append-only, CRC32-framed write-ahead
  journal with typed records and segment rotation; a torn final record
  (crash mid-append) truncates to the last valid frame with a warning
  metric instead of refusing to open;
- :mod:`repro.store.snapshot` — periodic compacted snapshots of the
  controller's durable state, atomically written, checksummed, with
  fallback to the previous generation on corruption;
- :mod:`repro.store.state` — the replay semantics: a pure
  ``apply_record`` over :class:`~repro.store.state.StoreState`, shared
  by the live recorder and crash recovery so snapshot+tail replay is
  state-identical to full-journal replay *by construction*;
- :mod:`repro.store.recorder` — hooks a live
  :class:`~repro.core.controller.P4AuthController` (its KMP's rollover
  epochs included, and optionally a BatchController) and journals every
  durable state change **before it is acted on** (write-ahead
  discipline);
- :mod:`repro.store.recovery` — warm restart: rebuild controller state
  from snapshot + journal tail, re-derive session keys from journaled
  master-key versions, resume sequence numbers *past* the last durable
  horizon (skip-ahead, never reuse), and reconcile in-flight windows
  via authenticated register reads.

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
