"""Live journaling of a controller's durable state changes.

:class:`StateRecorder` subscribes to the hook points the core exposes —
:attr:`ControllerKeyStore.listener`,
:attr:`RequestLifecycle.seq_listener` (``controller.requests``),
:attr:`BatchController.window_listener`,
:attr:`KeyManagementProtocol.on_epoch` (``controller.kmp``: every
completed local-key update, whoever issued it) — and appends a typed
journal record for each change **before the controller acts on it**
(the hooks fire synchronously ahead of the action they cover; the
journal append, and under strict fsync policies the fsync, happen
inline).

Sequence numbers get the skip-ahead treatment: rather than journaling
every ``next_seq`` (one fsync per request would erase the batching
win), the recorder journals a *horizon* reservation ``seq + stride``
whenever the controller is about to use a number at or past the current
horizon.  Recovery resumes issuing **at** the horizon — skipping up to
``stride - 1`` never-used numbers, which the data plane's monotonic
``expected_seq`` accepts by design — so no sequence number can ever be
reused, which is exactly the property the replay defense needs.
Horizons are journaled *unmasked*: the controller's counter wraps at 32
bits, but the journal lifts each reported value onto a monotone counter
(serial-number arithmetic), so a post-wrap horizon still reads as
forward movement on replay instead of being rejected as stale.
After a warm restart the controller sits exactly at every restored
horizon, so the first op past any of them reserves them all in one
group commit rather than one fsync per switch.

The recorder also folds every record it writes into an in-memory
:class:`~repro.store.state.StoreState` mirror through the same pure
:func:`~repro.store.state.apply_record` recovery uses — snapshots
serialize this mirror, making "snapshot + tail ≡ full replay" hold by
construction.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.store.journal import Journal
from repro.store.snapshot import SnapshotStore
from repro.store.state import KeyEntry, SEQ_MASK, StoreState, apply_record

#: Sequence numbers reserved (journaled) ahead of use per switch.
DEFAULT_SEQ_STRIDE = 64


class StateRecorder:
    """Journals a live controller's durable state, write-ahead."""

    def __init__(self, journal: Journal,
                 snapshots: Optional[SnapshotStore] = None, *,
                 seq_stride: int = DEFAULT_SEQ_STRIDE,
                 snapshot_every: Optional[int] = None,
                 state: Optional[StoreState] = None):
        if seq_stride < 1:
            raise ValueError("seq_stride must be >= 1")
        self.journal = journal
        self.snapshots = snapshots
        self.seq_stride = seq_stride
        #: Auto-snapshot after this many appended records (None: manual).
        self.snapshot_every = snapshot_every
        #: The in-memory mirror (recovery seeds it with the replayed
        #: state so the first snapshot after a warm restart is complete).
        self.state = state if state is not None else StoreState()
        self._reserved: Dict[str, int] = dict(self.state.seq_horizons)
        #: Per-switch unmasked monotone sequence counter.  The
        #: controller reports masked 32-bit values; the journal keeps
        #: horizons unmasked so they stay monotone across a wrap.
        self._unmasked: Dict[str, int] = dict(self.state.seq_horizons)
        #: Switches whose restored horizon is not yet re-reserved; a
        #: warm restart resumes the controller exactly at each of them,
        #: so the first op past any of them reserves them all.
        self._restored: Set[str] = set(self.state.seq_horizons)
        self._since_snapshot = 0
        self._controller = None
        self._batch = None

    # ------------------------------------------------------------------
    # attachment
    # ------------------------------------------------------------------

    def attach(self, controller, batch=None,
               shard_id: Optional[str] = None) -> None:
        """Hook a live controller, its KMP's epoch advances and, given
        one, its batch facade.

        What the controller *already* holds and the mirror lacks is
        journaled first: a switch's keys unless they equal the mirror's
        entry, a sequence horizon the controller has passed, and with
        ``shard_id`` set its switch ownership as a changed ``shard_map``.
        A cold attach journals all of it; a warm restart, whose
        controller was poured from the mirror, appends nothing.
        """
        if self._controller is not None:
            raise RuntimeError("recorder is already attached")
        self._controller = controller
        self._journal_existing(controller, shard_id)
        controller.keys.listener = self._on_key
        controller.requests.seq_listener = self._on_seq
        controller.kmp.on_epoch.append(self._on_epoch)
        if batch is not None:
            self._batch = batch
            batch.window_listener = self._on_window

    def detach(self) -> None:
        """Unhook all listeners (the recorder object stays queryable)."""
        controller = self._controller
        if controller is not None:
            if controller.keys.listener is self._on_key:
                controller.keys.listener = None
            if controller.requests.seq_listener is self._on_seq:
                controller.requests.seq_listener = None
            if self._on_epoch in controller.kmp.on_epoch:
                controller.kmp.on_epoch.remove(self._on_epoch)
        if self._batch is not None \
                and self._batch.window_listener is self._on_window:
            self._batch.window_listener = None
        self._controller = None
        self._batch = None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------

    def snapshot(self) -> Optional[str]:
        """Write a snapshot of the mirror, seal the journal segment it
        ends and compact the segments the oldest kept snapshot covers."""
        if self.snapshots is None:
            return None
        # Sync first: under "batch" the mirror runs ahead of stable
        # storage, and a snapshot covering LSNs a crash can still lose
        # makes recovery skip the fresh records that reuse them.
        self.journal.sync()
        path = self.snapshots.save(self.state)
        if self.journal.is_open:  # else a kill switch crashed it
            self.journal.rotate()
            self.journal.compact(self.snapshots.oldest_lsn())
        self._since_snapshot = 0
        return path

    # ------------------------------------------------------------------
    # hook handlers
    # ------------------------------------------------------------------

    def _on_key(self, switch: str, kind: str, key: int,
                version: int, durable: bool = True) -> None:
        entry = self.state.keys.get(switch)
        if kind == "local" and entry is not None and entry.has_local:
            self._append("key_rollover",
                         {"switch": switch, "key": key,
                          "version": version}, durable)
        else:
            self._append("key_install",
                         {"switch": switch, "kind": kind, "key": key,
                          "version": version}, durable)

    def _on_seq(self, switch: str, seq: int) -> None:
        unmasked = self._unmask(switch, seq)
        if unmasked < self._reserved.get(switch, 0):
            return
        if switch in self._restored:
            self._reserve_restored(switch, unmasked)
            return
        horizon = unmasked + self.seq_stride
        self._append("seq_advance", {"switch": switch, "horizon": horizon},
                     durable=True)
        self._reserved[switch] = horizon

    def _reserve_restored(self, switch: str, unmasked: int) -> None:
        """The first crossing after a warm restart.  The controller
        resumed every restored switch exactly at its horizon, so each
        one's first op would journal a durable ``seq_advance`` of its
        own; reserve them all now in one group commit instead."""
        restored, self._restored = self._restored, set()
        for other in sorted(restored):
            base = unmasked if other == switch else self._reserved[other]
            self._append("seq_advance", {"switch": other,
                                         "horizon": base + self.seq_stride})
            self._reserved[other] = base + self.seq_stride
        self.journal.sync()

    def _on_window(self, edge: str, switch: str,
                   head: Optional[Tuple[str, int]]) -> None:
        if edge == "open":
            self._append("batch_open",
                         {"switch": switch, "reg": head[0],
                          "index": head[1]})
        else:
            self._append("batch_close", {"switch": switch})

    def _on_epoch(self, switch: str, epoch: int) -> None:
        self._append("epoch_advance", {"switch": switch, "epoch": epoch})

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _unmask(self, switch: str, seq: int) -> int:
        """Lift a masked 32-bit controller sequence number onto the
        journal's unmasked monotone counter.

        Serial-number arithmetic: a masked value that moved *backwards*
        by more than half the 32-bit space is a wrap forward into the
        next ``2**32`` block.  Journaled horizons stay unmasked, so
        ``apply_record``'s forward-only rule keeps accepting them across
        a wrap; they are masked back down only where a 32-bit register
        or the controller's own counter needs the value.
        """
        prev = self._unmasked.get(switch, 0)
        unmasked = (prev & ~SEQ_MASK) | (seq & SEQ_MASK)
        if unmasked < prev and prev - unmasked > (SEQ_MASK >> 1):
            unmasked += SEQ_MASK + 1
        if unmasked > prev:
            self._unmasked[switch] = unmasked
        return unmasked

    def _append(self, rec_type: str, data: Dict[str, object],
                durable: bool = False) -> None:
        if not self.journal.is_open:
            # The process this recorder models is dead (a kill switch
            # crashed the journal mid-call): whatever the interrupted
            # caller does next is lost, exactly as on a real SIGKILL.
            return
        record = self.journal.append(rec_type, data, durable=durable)
        if not self.journal.is_open:  # killed inside this append
            return
        apply_record(self.state, record)
        self._since_snapshot += 1
        if self.snapshot_every is not None \
                and self._since_snapshot >= self.snapshot_every:
            self.snapshot()

    def _journal_existing(self, controller,
                          shard_id: Optional[str]) -> None:
        """Journal pre-attach controller state in one group commit: nothing
        acts on it before :meth:`attach` returns."""
        keys = controller.keys
        for switch in keys.known_switches():
            try:
                entry = KeyEntry(seed=keys.seed(switch))
            except KeyError:
                entry = KeyEntry()
            entry.auth = keys.auth_key_or_zero(switch)
            if keys.has_local_key(switch):
                entry.local_slots, entry.local_active = \
                    keys.local_key_slots(switch)
                entry.has_local = True
            if entry == self.state.keys.get(switch):
                continue
            if entry.seed:
                self._on_key(switch, "seed", entry.seed, 0, False)
            if entry.auth:
                self._on_key(switch, "auth", entry.auth, 0, False)
            for version, key in entry.local_installs():
                self._on_key(switch, "local", key, version, False)
        for switch, next_seq in sorted(controller._seq.items()):
            already = self._reserved.get(switch, 0)
            unmasked = self._unmask(switch, next_seq)
            if unmasked > already:
                horizon = unmasked + self.seq_stride
                self._append("seq_advance",
                             {"switch": switch, "horizon": horizon})
                self._reserved[switch] = horizon
        switches = sorted(controller.dataplanes)
        if shard_id is not None \
                and self.state.shard_map.get(shard_id) != switches:
            self._append("shard_map", {"shard": shard_id,
                                       "switches": switches})
        if self.journal.lag:
            self.journal.sync()


__all__ = ["DEFAULT_SEQ_STRIDE", "StateRecorder"]
