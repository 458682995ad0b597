"""The durable-state model and its replay semantics.

:class:`StoreState` is the controller state worth surviving a crash:
per-switch key material by version, per-switch sequence *horizons*
(reservations, not last-used values — see the skip-ahead rule in
DESIGN.md), in-flight batch windows, per-switch rollover epochs, and the
fleet shard map.

:func:`apply_record` is a **pure** fold of one journal record into a
state — it is the single definition of what each record type means.
The live :class:`~repro.store.recorder.StateRecorder` maintains its
in-memory mirror through this same function, snapshots serialize that
mirror, and recovery replays the journal tail through it again; so
"snapshot + tail replay ≡ full-journal replay" holds by construction,
and the property test in ``tests/store`` checks the disk round-trip
rather than a tautology.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.core.constants import KEY_VERSIONS

#: The controller's sequence counter wraps at 32 bits.  Journaled
#: horizons are kept *unmasked* (monotone across wraps — the recorder
#: lifts masked values with serial-number arithmetic); this mask is
#: applied only where a 32-bit register or counter needs the value.
SEQ_MASK = 0xFFFFFFFF


@dataclass
class KeyEntry:
    """One switch's journaled key material (controller side)."""

    seed: int = 0
    auth: int = 0
    #: The two local-key version slots, mirroring VersionedKey.
    local_slots: List[int] = field(
        default_factory=lambda: [0] * KEY_VERSIONS)
    local_active: int = 0
    has_local: bool = False

    def local_installs(self) -> Iterator[Tuple[int, int]]:
        """``(version, key)`` for each occupied local-key slot, the active
        one last: installing in this order ends on the active version."""
        for version, key in enumerate(self.local_slots):
            if key and version != self.local_active:
                yield version, key
        if self.local_slots[self.local_active]:
            yield self.local_active, self.local_slots[self.local_active]

    def to_dict(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "auth": self.auth,
            "local_slots": list(self.local_slots),
            "local_active": self.local_active,
            "has_local": self.has_local,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "KeyEntry":
        return cls(
            seed=int(data["seed"]),
            auth=int(data["auth"]),
            local_slots=[int(v) for v in data["local_slots"]],
            local_active=int(data["local_active"]),
            has_local=bool(data["has_local"]),
        )


@dataclass
class StoreState:
    """Everything recovery needs, as plain data."""

    #: switch -> first sequence number NOT yet covered by the journal.
    #: Recovery resumes *at* the horizon — never below it.
    seq_horizons: Dict[str, int] = field(default_factory=dict)
    keys: Dict[str, KeyEntry] = field(default_factory=dict)
    #: switch -> head op of the batch window open at crash time
    #: (``{"reg": ..., "index": ...}``); absent means quiesced.
    open_windows: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: switch -> the KMP's rollover epoch (completed local updates).
    epochs: Dict[str, int] = field(default_factory=dict)
    #: shard name -> ordered switch list.
    shard_map: Dict[str, List[str]] = field(default_factory=dict)
    #: LSN of the last record folded in (-1: none).
    applied_lsn: int = -1

    def key_entry(self, switch: str) -> KeyEntry:
        entry = self.keys.get(switch)
        if entry is None:
            entry = self.keys[switch] = KeyEntry()
        return entry

    def copy(self) -> "StoreState":
        return copy.deepcopy(self)

    # -- serialization -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "seq_horizons": dict(self.seq_horizons),
            "keys": {sw: entry.to_dict() for sw, entry in self.keys.items()},
            "open_windows": {sw: dict(window)
                             for sw, window in self.open_windows.items()},
            "epochs": dict(self.epochs),
            "shard_map": {shard: list(switches)
                          for shard, switches in self.shard_map.items()},
            "applied_lsn": self.applied_lsn,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "StoreState":
        return cls(
            seq_horizons={sw: int(v)
                          for sw, v in data["seq_horizons"].items()},
            keys={sw: KeyEntry.from_dict(entry)
                  for sw, entry in data["keys"].items()},
            open_windows={sw: dict(window)
                          for sw, window in data["open_windows"].items()},
            epochs={sw: int(v) for sw, v in data["epochs"].items()},
            shard_map={shard: list(switches)
                       for shard, switches in data["shard_map"].items()},
            applied_lsn=int(data["applied_lsn"]),
        )


def apply_record(state: StoreState, record) -> StoreState:
    """Fold one journal record into ``state`` (mutates and returns it).

    ``record`` is anything with ``.type``, ``.data`` and ``.lsn``
    (a :class:`~repro.store.journal.JournalRecord`).  Unknown types
    raise — the journal validated types at append time, so an unknown
    type here means a version skew worth surfacing, not skipping.
    """
    rec_type = record.type
    data = record.data
    if rec_type == "key_install":
        entry = state.key_entry(data["switch"])
        kind = data["kind"]
        if kind == "seed":
            entry.seed = int(data["key"])
        elif kind == "auth":
            entry.auth = int(data["key"])
        elif kind == "local":
            version = int(data["version"]) % KEY_VERSIONS
            entry.local_slots[version] = int(data["key"])
            entry.local_active = version
            entry.has_local = True
        else:
            raise ValueError(f"unknown key kind {kind!r}")
    elif rec_type == "key_rollover":
        entry = state.key_entry(data["switch"])
        version = int(data["version"]) % KEY_VERSIONS
        entry.local_slots[version] = int(data["key"])
        entry.local_active = version
        entry.has_local = True
    elif rec_type == "seq_advance":
        switch = data["switch"]
        # Unmasked: horizons are monotone even across the controller's
        # 32-bit wrap (masking here would make a post-wrap horizon look
        # stale and freeze reservations at the pre-wrap value).
        horizon = int(data["horizon"])
        # Horizons only move forward; a replayed stale horizon must not
        # drag recovery below sequence numbers already burned.
        if horizon > state.seq_horizons.get(switch, 0):
            state.seq_horizons[switch] = horizon
    elif rec_type == "batch_open":
        state.open_windows[data["switch"]] = {
            "reg": data["reg"], "index": int(data["index"]),
        }
    elif rec_type == "batch_close":
        state.open_windows.pop(data["switch"], None)
    elif rec_type == "shard_map":
        state.shard_map[data["shard"]] = list(data["switches"])
    elif rec_type == "epoch_advance":
        switch = data["switch"]
        epoch = int(data["epoch"])
        if epoch > state.epochs.get(switch, 0):
            state.epochs[switch] = epoch
    else:
        raise ValueError(f"cannot replay unknown record type {rec_type!r}")
    state.applied_lsn = record.lsn
    return state


def replay_records(records: Iterable,
                   base: Optional[StoreState] = None) -> StoreState:
    """Fold a record stream into a state, starting from ``base``.

    Records at or below ``base.applied_lsn`` (already inside the
    snapshot) are skipped, so callers can hand the *whole* journal to a
    snapshot-seeded replay without double-applying the prefix.
    """
    state = base if base is not None else StoreState()
    for record in records:
        if record.lsn <= state.applied_lsn:
            continue
        apply_record(state, record)
    return state


__all__ = ["KeyEntry", "SEQ_MASK", "StoreState", "apply_record",
           "replay_records"]
