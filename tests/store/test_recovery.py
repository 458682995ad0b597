"""Warm restart against a live deployment: keys, horizons, reconcile.

Uses the shared ``Deployment`` helper (one controller + switches on one
virtual clock).  The crash choreography mirrors the chaos experiment:
``simulate_crash`` the journal, ``halt()`` the old controller, then
rebuild a fresh controller over the *same* switches — whose registers,
like real hardware, survived the controller process dying.
"""

from __future__ import annotations

import pytest

from tests.conftest import Deployment

from repro.core.controller import P4AuthController
from repro.runtime.batch import BatchController
from repro.store import (
    SnapshotStore,
    StateRecorder,
    load_state,
    open_store,
    restore_dataplane,
    store_exists,
    warm_restart,
)
from repro.store.recovery import SNAPSHOT_SUBDIR
from repro.store.state import SEQ_MASK, KeyEntry, StoreState

REGISTERS = [("demo", 64, 16)]


def deployment(**kwargs) -> Deployment:
    return Deployment(num_switches=2, registers=REGISTERS, **kwargs)


def write_ok(dep, controller, switch, index, value) -> bool:
    outcome = []
    controller.write_register(switch, "demo", index, value,
                              lambda ok, _v: outcome.append(ok))
    dep.run(2.0)
    return outcome == [True]


class TestStoreExists:
    def test_false_on_missing_and_empty(self, tmp_path):
        assert not store_exists(str(tmp_path / "nothing"))
        assert not store_exists(str(tmp_path))

    def test_true_after_first_journal_record(self, tmp_path):
        dep = deployment()
        journal, snapshots, records = open_store(str(tmp_path))
        assert records == []
        recorder = StateRecorder(journal, snapshots)
        recorder.attach(dep.controller)
        assert store_exists(str(tmp_path))
        recorder.detach()
        journal.close()


class TestAttachGroupCommit:
    """Attach journals pre-existing keys and horizons in one group commit:
    at most one fsync per shard, and the same records as the per-record
    (``fsync="always"``) path."""

    def attach(self, state_dir, controller, fsync):
        from repro.telemetry.metrics import MetricRegistry
        metrics = MetricRegistry()
        journal, snapshots, _ = open_store(state_dir, fsync=fsync,
                                           metrics=metrics, shard="s")
        recorder = StateRecorder(journal, snapshots)
        before = self.fsyncs(metrics)
        recorder.attach(controller, shard_id="shard-0")
        fsyncs = self.fsyncs(metrics) - before
        records = [(r.lsn, r.type, r.data) for r in journal.records()]
        lag = journal.lag
        recorder.detach()
        journal.close()
        return fsyncs, records, lag

    @staticmethod
    def fsyncs(metrics) -> int:
        histogram = metrics.get("store_fsync_seconds", shard="s")
        return histogram.count if histogram else 0

    def test_one_fsync_and_identical_records(self, tmp_path):
        dep = Deployment(num_switches=4, registers=REGISTERS)
        for index, switch in enumerate(dep.dataplanes):
            assert write_ok(dep, dep.controller, switch, index, 7 + index)
        grouped, records, lag = self.attach(str(tmp_path / "batch"),
                                            dep.controller, "batch")
        per_record, expected, _ = self.attach(str(tmp_path / "always"),
                                              dep.controller, "always")
        assert len(records) > len(dep.dataplanes)
        assert records == expected
        assert per_record == len(expected)
        assert grouped <= 1
        assert lag == 0  # durable before attach returned


class TestWarmRestart:
    def crash(self, tmp_path, dep, recorder):
        recorder.journal.simulate_crash()
        recorder.detach()
        dep.controller.halt()

    def recover(self, tmp_path, dep, **kwargs):
        controller = P4AuthController(dep.net)
        for dataplane in dep.dataplanes.values():
            controller.provision(dataplane)
        recorder, report = warm_restart(str(tmp_path), controller,
                                        **kwargs)
        return controller, recorder, report

    def test_keys_and_horizons_survive(self, tmp_path):
        dep = deployment()
        journal, snapshots, _ = open_store(str(tmp_path), fsync="batch")
        recorder = StateRecorder(journal, snapshots, seq_stride=8)
        recorder.attach(dep.controller)
        assert write_ok(dep, dep.controller, "s1", 0, 111)
        old_keys = {name: dep.controller.keys.local_key_slots(name)
                    for name in ("s1", "s2")}
        self.crash(tmp_path, dep, recorder)

        controller, recorder2, report = self.recover(tmp_path, dep,
                                                     fsync="batch",
                                                     seq_stride=8)
        assert report.switches_restored == 2
        assert not report.snapshot_used  # no snapshot was ever taken
        for name in ("s1", "s2"):
            assert controller.keys.local_key_slots(name) == old_keys[name]
            # The controller resumes AT the journaled horizon.
            assert controller._seq[name] == report.seq_horizons[name]
        # And traffic flows without tripping the replay defense.
        assert write_ok(dep, controller, "s1", 1, 222)
        assert write_ok(dep, controller, "s2", 1, 333)
        for dataplane in dep.dataplanes.values():
            assert dataplane.stats.replays_detected == 0
            assert dataplane.stats.digest_fail_cdp == 0
        recorder2.detach()
        recorder2.journal.close()

    def test_sequence_numbers_never_reused(self, tmp_path):
        """The skip-ahead rule: every post-restart sequence number is
        strictly above anything the dead controller could have used."""
        dep = deployment()
        journal, snapshots, _ = open_store(str(tmp_path), fsync="batch")
        recorder = StateRecorder(journal, snapshots, seq_stride=4)
        recorder.attach(dep.controller)
        for index in range(6):
            assert write_ok(dep, dep.controller, "s1", index, index)
        used_before = dep.controller._seq["s1"]
        self.crash(tmp_path, dep, recorder)

        controller, recorder2, report = self.recover(tmp_path, dep,
                                                     fsync="batch",
                                                     seq_stride=4)
        assert controller._seq["s1"] >= used_before
        assert controller.next_seq("s1") >= used_before
        recorder2.detach()
        recorder2.journal.close()

    def test_snapshot_plus_tail_recovery(self, tmp_path):
        dep = deployment()
        journal, snapshots, _ = open_store(str(tmp_path), fsync="batch")
        # stride=1: every next_seq journals a horizon, so the writes
        # after the snapshot are guaranteed to leave a journal tail.
        recorder = StateRecorder(journal, snapshots, seq_stride=1)
        recorder.attach(dep.controller)
        assert write_ok(dep, dep.controller, "s1", 0, 1)
        recorder.snapshot()
        tail_base = recorder.state.applied_lsn
        # Two writes: the first consumes the seq reserved at attach
        # time; the second crosses the horizon and journals a tail.
        assert write_ok(dep, dep.controller, "s2", 0, 2)
        assert write_ok(dep, dep.controller, "s2", 1, 3)
        self.crash(tmp_path, dep, recorder)

        _c, recorder2, report = self.recover(tmp_path, dep, fsync="batch",
                                             seq_stride=1)
        assert report.snapshot_used
        # Only the post-snapshot tail was replayed.
        assert 0 < report.replayed_records <= \
            recorder2.state.applied_lsn - tail_base + 1
        recorder2.detach()
        recorder2.journal.close()

    def test_open_window_reconciled_by_authenticated_read(self, tmp_path):
        dep = deployment()
        journal, snapshots, _ = open_store(str(tmp_path), fsync="batch")
        recorder = StateRecorder(journal, snapshots, seq_stride=4)
        batch = BatchController(dep.controller, max_in_flight=4)
        recorder.attach(dep.controller, batch=batch)
        batch.write_register("s1", "demo", 0, 9, lambda ok, v: None)
        # Force the open-window record down before the crash loses it.
        recorder.journal.sync()
        self.crash(tmp_path, dep, recorder)

        controller, recorder2, report = self.recover(tmp_path, dep,
                                                     fsync="batch",
                                                     seq_stride=4)
        assert "s1" in report.windows
        assert report.windows["s1"] is None  # read still in flight
        dep.run(2.0)
        assert report.windows["s1"] is True
        assert report.windows_reconciled
        # The reconcile read marked the window closed in the journal.
        assert "s1" not in recorder2.state.open_windows
        recorder2.detach()
        recorder2.journal.close()

    def test_cold_start_on_empty_dir_is_a_noop_recovery(self, tmp_path):
        dep = deployment()
        recorder, report = warm_restart(str(tmp_path), dep.controller)
        assert report.replayed_records == 0
        assert not report.snapshot_used
        assert report.windows == {}
        assert write_ok(dep, dep.controller, "s1", 0, 5)
        recorder.detach()
        recorder.journal.close()


class TestSnapshotDurability:
    """A snapshot must never cover LSNs the journal could still lose."""

    def test_snapshot_syncs_batched_journal_first(self, tmp_path):
        journal, snapshots, _ = open_store(str(tmp_path), fsync="batch")
        recorder = StateRecorder(journal, snapshots, snapshot_every=2)
        # Two non-durable records trigger the auto-snapshot; nothing
        # else would have forced a group commit for them.
        recorder._append("epoch_advance", {"switch": "s1", "epoch": 1})
        recorder._append("epoch_advance", {"switch": "s1", "epoch": 2})
        assert journal.durable_lsn == 1  # the snapshot forced the sync
        journal.simulate_crash()

        # Recovery resumes at the snapshot's coverage, not below it —
        # so this fresh acknowledged-durable record gets LSN 2, not 0.
        journal2, snapshots2, records = open_store(str(tmp_path),
                                                   fsync="batch")
        state, snapshot_used, _ = load_state(records, snapshots2)
        assert snapshot_used
        assert journal2.next_lsn == state.applied_lsn + 1 == 2
        journal2.append("seq_advance", {"switch": "s1", "horizon": 64},
                        durable=True)
        journal2.simulate_crash()

        # The record is NOT shadowed by the snapshot on the next replay.
        journal3, snapshots3, records3 = open_store(str(tmp_path),
                                                    fsync="batch")
        state3, _, replayed3 = load_state(records3, snapshots3)
        assert replayed3 == 1
        assert state3.seq_horizons == {"s1": 64}
        assert state3.epochs == {"s1": 2}
        journal3.close()

    def test_stale_snapshot_ahead_of_journal_is_clamped(self, tmp_path):
        """A state dir from a pre-fix build: the snapshot covers LSNs
        the crashed journal never fsynced.  Recovery clamps the LSN
        space past it, so post-restart records survive the restart
        after next."""
        snapshots = SnapshotStore(str(tmp_path / SNAPSHOT_SUBDIR))
        stale = StoreState(applied_lsn=7)
        stale.seq_horizons["s1"] = 40
        snapshots.save(stale)

        dep = deployment()
        controller = dep.controller
        recorder, report = warm_restart(str(tmp_path), controller,
                                        fsync="batch", seq_stride=4)
        assert report.snapshot_used
        assert report.seq_horizons["s1"] == 40
        assert controller._seq["s1"] == 40
        # Every record the new recorder journals sits above the
        # snapshot's coverage.
        assert recorder.state.applied_lsn >= 8
        assert write_ok(dep, controller, "s1", 0, 17)
        recorder.journal.simulate_crash()
        recorder.detach()
        controller.halt()

        controller2 = P4AuthController(dep.net)
        for dataplane in dep.dataplanes.values():
            controller2.provision(dataplane)
        recorder2, report2 = warm_restart(str(tmp_path), controller2,
                                          fsync="batch", seq_stride=4)
        # The post-clamp reservations were replayed, not shadowed.
        assert report2.seq_horizons["s1"] > 40
        recorder2.detach()
        recorder2.journal.close()


class TestSequenceWrap:
    """Journaled horizons stay monotone across the 32-bit seq wrap."""

    def test_horizon_advances_past_the_wrap(self, tmp_path):
        journal, snapshots, _ = open_store(str(tmp_path))
        seeded = StoreState()
        seeded.seq_horizons["s1"] = SEQ_MASK - 7  # reservation near top
        recorder = StateRecorder(journal, snapshots, seq_stride=8,
                                 state=seeded)
        # The controller reports masked values; issuance reaches the
        # reservation, then wraps to 0.
        recorder._on_seq("s1", SEQ_MASK - 7)
        recorder._on_seq("s1", 0)
        horizon = recorder.state.seq_horizons["s1"]
        assert horizon == SEQ_MASK + 1 + 8  # unmasked, past the wrap
        journal.close()

        # Replay agrees: the post-wrap horizon is forward movement, not
        # a stale reservation to be rejected.
        journal2, snapshots2, records = open_store(str(tmp_path))
        state, _, _ = load_state(records, snapshots2)
        assert state.seq_horizons["s1"] == horizon
        # Masked back down only at the 32-bit register boundary.
        assert horizon & SEQ_MASK == 8
        journal2.close()


class TestRestoreDataplane:
    def test_installs_kauth_local_slots_and_expected_seq(self):
        dep = deployment(bootstrap=False)
        dataplane = dep.dataplanes["s1"]
        state = StoreState(applied_lsn=3)
        state.seq_horizons["s1"] = 500
        state.keys["s1"] = KeyEntry(seed=1, auth=0xA17A,
                                    local_slots=[0x10CA1, 0x10CA2],
                                    local_active=1, has_local=True)
        restore_dataplane(dataplane, state)
        registers = dataplane.switch.registers
        assert registers.get("p4auth_kauth").read(0) == 0xA17A
        assert registers.get("p4auth_expected_seq").read(0) == 500

    def test_switch_absent_from_state_is_untouched(self):
        dep = deployment(bootstrap=False)
        dataplane = dep.dataplanes["s1"]
        restore_dataplane(dataplane, StoreState())
        assert dataplane.switch.registers.get(
            "p4auth_expected_seq").read(0) == 0


class TestLoadState:
    def test_full_journal_replay_without_snapshots(self, tmp_path):
        journal, snapshots, _ = open_store(str(tmp_path))
        journal.append("seq_advance", {"switch": "s1", "horizon": 32},
                       durable=True)
        journal.append("epoch_advance", {"switch": "s1", "epoch": 2})
        journal.close()
        journal2, snapshots2, records = open_store(str(tmp_path))
        state, snapshot_used, replayed = load_state(records, snapshots2)
        assert not snapshot_used
        assert replayed == 2
        assert state.seq_horizons == {"s1": 32}
        assert state.epochs == {"s1": 2}
        journal2.close()
