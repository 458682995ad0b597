"""The shared atomic-write / orphan-sweep idiom (``repro.store.atomic``)."""

from __future__ import annotations

import os

import pytest

from repro.store.atomic import (
    TMP_SUFFIX,
    atomic_write_bytes,
    fsync_dir,
    sweep_orphan_tmp,
)


class TestAtomicWrite:
    def test_creates_and_replaces(self, tmp_path):
        path = str(tmp_path / "doc.json")
        atomic_write_bytes(path, b"one")
        assert open(path, "rb").read() == b"one"
        atomic_write_bytes(path, b"two")
        assert open(path, "rb").read() == b"two"

    def test_no_tmp_residue_after_success(self, tmp_path):
        atomic_write_bytes(str(tmp_path / "a"), b"x")
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(TMP_SUFFIX)]

    def test_failed_replace_leaves_original_and_no_tmp(self, tmp_path,
                                                      monkeypatch):
        path = str(tmp_path / "keep.json")
        atomic_write_bytes(path, b"original")

        def boom(src, dst):
            raise OSError("disk gone")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(path, b"clobber")
        monkeypatch.undo()
        assert open(path, "rb").read() == b"original"
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(TMP_SUFFIX)]


class TestFsyncDir:
    def test_fsyncs_committed_rename_durably(self, tmp_path, monkeypatch):
        """The write must fsync the *directory* after the replace —
        file-content fsync alone does not persist the rename."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd)))
        atomic_write_bytes(str(tmp_path / "doc.json"), b"x")
        # One fsync for the payload, one for the directory entry.
        assert len(synced) == 2

    def test_tolerates_missing_file_and_real_directory_targets(self,
                                                               tmp_path):
        fsync_dir(str(tmp_path / "nope"))
        (tmp_path / "plain.txt").write_bytes(b"")
        fsync_dir(str(tmp_path / "plain.txt"))
        fsync_dir(str(tmp_path))


class TestOrphanSweep:
    def test_sweeps_recursively_and_counts(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "a.tmp").write_bytes(b"")
        (tmp_path / "sub" / "b.tmp").write_bytes(b"")
        (tmp_path / "keep.json").write_bytes(b"{}")
        assert sweep_orphan_tmp(str(tmp_path)) == 2
        assert (tmp_path / "keep.json").exists()
        assert not (tmp_path / "a.tmp").exists()

    def test_missing_directory_is_zero(self, tmp_path):
        assert sweep_orphan_tmp(str(tmp_path / "nope")) == 0

