"""Checksummed snapshot files: atomicity, fallback, pruning."""

from __future__ import annotations

import json
import os

from repro.crypto.crc import Crc32
from repro.store.snapshot import GENERATIONS, SNAPSHOT_SCHEMA, SnapshotStore
from repro.store.state import KeyEntry, StoreState


def sample_state(lsn=41) -> StoreState:
    state = StoreState(applied_lsn=lsn)
    state.seq_horizons["s1"] = 128
    state.keys["s1"] = KeyEntry(seed=7, auth=9,
                                local_slots=[0xAA, 0xBB],
                                local_active=1, has_local=True)
    state.open_windows["s1"] = {"reg": "demo", "index": 3}
    state.epochs["s1"] = 2
    state.shard_map["shard-0"] = ["s1"]
    return state


def canonical_body(state: StoreState) -> bytes:
    return json.dumps(state.to_dict(), sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class TestRoundtrip:
    def test_save_load_is_identity(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.save(sample_state())
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.to_dict() == sample_state().to_dict()

    def test_empty_store_loads_none(self, tmp_path):
        assert SnapshotStore(str(tmp_path)).load_latest() is None

    def test_filename_carries_covered_lsn(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.save(sample_state(lsn=41))
        assert os.path.basename(path) == "snapshot-%012d.json" % 42

    def test_schema_tag_embedded(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.save(sample_state())
        document = json.load(open(path))
        assert document["schema"] == SNAPSHOT_SCHEMA
        assert "crc32" in document

    def test_document_embeds_the_checksummed_body(self, tmp_path):
        """The state is serialized once: the file carries the canonical
        body the CRC covers, byte for byte."""
        path = SnapshotStore(str(tmp_path)).save(sample_state())
        blob = open(path, "rb").read()
        body = canonical_body(sample_state())
        assert body in blob
        assert json.loads(blob)["crc32"] == Crc32().compute(body)

    def test_loads_the_indented_format(self, tmp_path):
        """A snapshot whose whole document was re-encoded with
        ``indent=1`` (the earlier writer) still loads."""
        document = {"schema": SNAPSHOT_SCHEMA,
                    "crc32": Crc32().compute(canonical_body(sample_state())),
                    "state": sample_state().to_dict()}
        (tmp_path / ("snapshot-%012d.json" % 42)).write_bytes(
            json.dumps(document, sort_keys=True, indent=1).encode("utf-8"))
        loaded = SnapshotStore(str(tmp_path)).load_latest()
        assert loaded is not None
        assert loaded.to_dict() == sample_state().to_dict()


class TestCorruptionFallback:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        store.save(sample_state(lsn=10))
        newest = store.save(sample_state(lsn=20))
        blob = bytearray(open(newest, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        with open(newest, "wb") as handle:
            handle.write(blob)
        loaded = store.load_latest()
        assert loaded is not None
        assert loaded.applied_lsn == 10

    def test_all_corrupt_loads_none(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.save(sample_state())
        with open(path, "wb") as handle:
            handle.write(b"not json at all")
        assert store.load_latest() is None

    def test_wrong_schema_is_skipped(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        path = store.save(sample_state())
        document = json.load(open(path))
        document["schema"] = "someone-else/9"
        with open(path, "w") as handle:
            json.dump(document, handle)
        assert store.load_latest() is None


class TestHousekeeping:
    def test_prunes_to_keep_generations(self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        for lsn in (10, 20, 30):
            store.save(sample_state(lsn=lsn))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2 == GENERATIONS
        assert store.load_latest().applied_lsn == 30

    def test_oldest_lsn_is_the_oldest_kept_generations_coverage(
            self, tmp_path):
        store = SnapshotStore(str(tmp_path))
        assert store.oldest_lsn() == 0
        store.save(sample_state(lsn=10))
        assert store.oldest_lsn() == 0  # no fallback yet: keep it all
        store.save(sample_state(lsn=20))
        assert store.oldest_lsn() == 11
        store.save(sample_state(lsn=30))
        assert store.oldest_lsn() == 21

    def test_init_sweeps_orphan_tmp(self, tmp_path):
        tmp_path.joinpath("half-write.tmp").write_bytes(b"dead writer")
        SnapshotStore(str(tmp_path))
        assert not tmp_path.joinpath("half-write.tmp").exists()
