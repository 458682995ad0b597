"""Warm restart: rebuild a controller from snapshot + journal tail.

The recovery contract, stated against P4Auth's own defenses:

1. **Never reuse a sequence number.**  The journal holds per-switch
   *horizons* — reservations at or past anything the dead controller
   could have used.  Recovery resumes issuing exactly at the horizon
   (:meth:`P4AuthController.restore_seq`); the data plane's monotonic
   ``expected_seq`` accepts the forward skip, so neither a replay alert
   nor a DoS heuristic fires on the controller's own restart.
2. **Re-derive, don't re-negotiate.**  Master keys (K_seed, K_auth,
   K_local by version slot) come from the journal; session keys are a
   pure function of the master (``derive_session_keys``), so the
   session cache repopulates on demand.  Both local-key version slots
   are restored, and responses echo the key version that signed the
   request (§VI-C two-version rule) — so even a rollover that completed
   on the switch after our last journal record still verifies.
3. **Reconcile, don't assume.**  For every batch window open at crash
   time the restarted controller issues an *authenticated register
   read* of the window's head register; a verified response proves the
   channel is live and the defense state consistent before normal
   traffic resumes.

:func:`warm_restart` is the one-call path: open the store, replay, pour
the state into a freshly provisioned controller, attach a new
:class:`~repro.store.recorder.StateRecorder`, and fire reconciliation
reads.  :func:`restore_dataplane` is the daemon-side helper for
simulated restarts where fresh in-process switch objects stand in for
external hardware that kept its registers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.keys import LOCAL_KEY_INDEX
from repro.store.journal import FSYNC_POLICIES, Journal, JournalRecord
from repro.store.recorder import DEFAULT_SEQ_STRIDE, StateRecorder
from repro.store.snapshot import SnapshotStore
from repro.store.state import StoreState, replay_records
from repro.telemetry import NULL_TELEMETRY, MetricRegistry

#: Buckets for the wall-clock recovery-duration histogram (seconds).
RECOVERY_BUCKETS: Tuple[float, ...] = (
    1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0,
)

JOURNAL_SUBDIR = "journal"
SNAPSHOT_SUBDIR = "snapshots"


@dataclass
class RecoveryReport:
    """What one warm restart found and did."""

    state: StoreState
    #: Did a snapshot seed the replay (False: full-journal replay)?
    snapshot_used: bool
    #: Journal records replayed on top of the snapshot base.
    replayed_records: int
    #: Torn tail records truncated at journal open.
    torn_records: int
    #: Switches whose key material was restored into the controller.
    switches_restored: int
    seq_horizons: Dict[str, int] = field(default_factory=dict)
    #: Per-switch reconciliation outcome for windows open at crash
    #: time: None until the authenticated read resolves, then ok.
    windows: Dict[str, Optional[bool]] = field(default_factory=dict)
    #: Wall-clock seconds for open+replay+restore (reconciliation reads
    #: complete asynchronously in simulated time).
    duration_s: float = 0.0

    @property
    def windows_reconciled(self) -> bool:
        return all(ok for ok in self.windows.values())


def store_exists(state_dir: str) -> bool:
    """Does ``state_dir`` hold any durable state worth recovering?

    True when a journal segment or snapshot file is present — the
    daemon uses this to choose warm restart (restore + reconcile) over
    a cold bootstrap, *without* opening the store twice.
    """
    for subdir, suffix in ((JOURNAL_SUBDIR, ".wal"),
                           (SNAPSHOT_SUBDIR, ".json")):
        root = os.path.join(state_dir, subdir)
        try:
            names = os.listdir(root)
        except OSError:
            continue
        if any(name.endswith(suffix) for name in names):
            return True
    return False


def open_store(state_dir: str, *, fsync: str = "always",
               segment_max_bytes: int = 4 << 20, keep: int = 2,
               metrics: MetricRegistry = NULL_TELEMETRY.metrics,
               **metric_labels
               ) -> Tuple[Journal, SnapshotStore, List[JournalRecord]]:
    """Open (creating if needed) the journal + snapshot store under one
    state directory; returns the journal's surviving records."""
    if fsync not in FSYNC_POLICIES:
        raise ValueError(f"fsync must be one of {FSYNC_POLICIES}")
    journal = Journal(os.path.join(state_dir, JOURNAL_SUBDIR),
                      fsync=fsync, segment_max_bytes=segment_max_bytes,
                      metrics=metrics, **metric_labels)
    records = journal.open()
    snapshots = SnapshotStore(os.path.join(state_dir, SNAPSHOT_SUBDIR),
                              keep=keep, metrics=metrics, **metric_labels)
    return journal, snapshots, records


def load_state(records: List[JournalRecord],
               snapshots: Optional[SnapshotStore] = None
               ) -> Tuple[StoreState, bool, int]:
    """Snapshot + tail replay; returns (state, snapshot_used, replayed).

    With no (valid) snapshot this degrades to a full-journal replay —
    the property test in ``tests/store`` pins the two paths to
    identical states.
    """
    base = snapshots.load_latest() if snapshots is not None else None
    snapshot_used = base is not None
    state = base if base is not None else StoreState()
    # LSNs are contiguous (Journal.open enforces it), so what the replay
    # skips is exactly the prefix the snapshot already covers.
    covered_lsn = state.applied_lsn
    replay_records(records, state)
    replayed = sum(record.lsn > covered_lsn for record in records)
    return state, snapshot_used, replayed


def restore_dataplane(dataplane, state: StoreState) -> None:
    """Reinstall journaled switch-side state into a fresh dataplane.

    Daemon restarts rebuild the *whole* in-process deployment, but the
    simulated switches stand in for external hardware whose registers
    survived the controller's crash.  This reinstalls what that hardware
    would still hold: K_auth, both local-key version slots, and — being
    adversarially strict — ``expected_seq`` raised to the journaled
    horizon, so recovery only succeeds if the skip-ahead rule works.
    """
    name = dataplane.switch.name
    registers = dataplane.switch.registers
    entry = state.keys.get(name)
    if entry is not None:
        if entry.auth:
            registers.get("p4auth_kauth").write(0, entry.auth)
        for version, key in entry.local_installs():
            dataplane.keys.install_at(LOCAL_KEY_INDEX, key, version)
    horizon = state.seq_horizons.get(name)
    if horizon is not None:
        registers.get("p4auth_expected_seq").write(0, horizon & 0xFFFFFFFF)


def warm_restart(state_dir: str, controller, *, batch=None,
                 shard_id: Optional[str] = None, fsync: str = "always",
                 seq_stride: int = DEFAULT_SEQ_STRIDE,
                 snapshot_every: Optional[int] = None, keep: int = 2,
                 reconcile: bool = True,
                 metrics: MetricRegistry = NULL_TELEMETRY.metrics,
                 **metric_labels
                 ) -> Tuple[StateRecorder, RecoveryReport]:
    """Rebuild a freshly constructed controller from its state directory.

    The controller must already be provisioned against its dataplanes
    (K_seed + register-id maps — switch-boot configuration, not crash
    state).  On return the recorder is attached and journaling; the
    report's ``windows`` entries resolve as the reconciliation reads
    complete in simulated time.  Works identically on an empty state
    directory (cold start: nothing to replay, recorder just attaches).
    """
    started = time.perf_counter()
    journal, snapshots, records = open_store(
        state_dir, fsync=fsync, keep=keep, metrics=metrics, **metric_labels)
    state, snapshot_used, replayed = load_state(records, snapshots)
    # A surviving snapshot can cover LSNs the journal itself lost (a
    # state dir written under fsync='batch' by a build that snapshotted
    # without syncing first).  Clamp the LSN space forward so fresh
    # records are never assigned LSNs the snapshot already covers —
    # tail replay skips everything at or below ``applied_lsn``, so a
    # collision would silently erase acknowledged durable records on
    # the *next* recovery.  Everything below the clamp is inside the
    # snapshot (``skip_to`` compacts the covered segments away).
    if state.applied_lsn + 1 > journal.next_lsn:
        journal.skip_to(state.applied_lsn + 1)
    # The recovery-time truth, frozen before the new recorder starts
    # mutating `state` (attach immediately reserves fresh seq horizons
    # — the *report* must keep the horizons the controller resumes at,
    # which is what ``restore_dataplane`` installs as ``expected_seq``).
    recovered_state = state.copy()

    keys = controller.keys
    restored = 0
    for switch in sorted(state.keys):
        entry = state.keys[switch]
        if entry.seed:
            keys.set_seed(switch, entry.seed)
        if entry.auth:
            keys.set_auth_key(switch, entry.auth)
        for version, key in entry.local_installs():
            keys.install_local_key_at(switch, key, version)
        restored += 1
    for switch, horizon in state.seq_horizons.items():
        controller.restore_seq(switch, horizon)
    controller.kmp.restore_epochs(state.epochs)

    recorder = StateRecorder(journal, snapshots, seq_stride=seq_stride,
                             snapshot_every=snapshot_every,
                             state=state)
    recorder.attach(controller, batch=batch, shard_id=shard_id)

    report = RecoveryReport(
        state=recovered_state, snapshot_used=snapshot_used,
        replayed_records=replayed, torn_records=journal.torn_records,
        switches_restored=restored,
        seq_horizons=dict(recovered_state.seq_horizons),
        windows={switch: None
                 for switch in sorted(recovered_state.open_windows)},
    )
    report.duration_s = time.perf_counter() - started
    if metrics.enabled:
        metrics.histogram("store_recovery_seconds",
                          buckets=RECOVERY_BUCKETS,
                          **metric_labels).observe(report.duration_s)
        metrics.gauge("store_recovery_replayed_records",
                      **metric_labels).set(replayed)

    if reconcile:
        for switch, window in sorted(recovered_state.open_windows.items()):
            if switch not in controller.dataplanes \
                    or not controller.keys.has_local_key(switch):
                # No channel (switch gone) or no key material survived
                # (crash before the install was durable): this window
                # cannot be reconciled — the caller re-bootstraps.
                report.windows[switch] = False
                continue

            def _resolved(ok: bool, _value: int, sw: str = switch) -> None:
                report.windows[sw] = ok
                if ok:
                    # The window's fate is now known; mark it closed so
                    # the next recovery doesn't re-reconcile it.
                    recorder._append("batch_close", {"switch": sw})

            controller.read_register(switch, window["reg"],
                                     int(window["index"]), _resolved)
    return recorder, report


__all__ = [
    "JOURNAL_SUBDIR",
    "RECOVERY_BUCKETS",
    "RecoveryReport",
    "SNAPSHOT_SUBDIR",
    "load_state",
    "open_store",
    "restore_dataplane",
    "store_exists",
    "warm_restart",
]
