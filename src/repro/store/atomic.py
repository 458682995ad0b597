"""The atomic-write / orphan-sweep idiom, shared by every disk writer.

Write to a per-process ``*.tmp`` created with ``mkstemp`` in the
destination directory, fsync it, then ``os.replace`` onto the final
name — readers see either the old file or the complete new one, never
a torn write, and concurrent writers cannot clobber each other's
temporaries.  A SIGKILL between ``mkstemp`` and ``replace`` leaves an
orphaned temp file behind; :func:`sweep_orphan_tmp` reclaims those at
open time.
"""

from __future__ import annotations

import os
import tempfile

#: Suffix every atomic writer's temporaries carry (and the sweep hunts).
TMP_SUFFIX = ".tmp"


def fsync_dir(path: str) -> None:
    """Fsync the directory ``path`` so a just-performed rename, create,
    or unlink of an entry in it survives power loss.

    File-content fsync alone does not persist the *directory entry* on
    journaling filesystems; without this, a power failure can undo an
    ``os.replace`` whose payload was already durable.  Best-effort:
    platforms or filesystems that refuse to open/fsync a directory
    (some network mounts, Windows) are silently tolerated — they offer
    no stronger primitive anyway.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Atomically and durably create/replace ``path`` with ``data``.

    The temp file lives in ``path``'s directory so the final
    ``os.replace`` is a same-filesystem rename (atomic on POSIX).  The
    payload is flushed to stable storage before the rename and the
    containing directory is fsynced after it, so a power
    failure can neither surface a torn committed file nor silently lose
    the rename.  On any failure the temp file is removed and the
    original ``path`` (if it existed) is untouched.
    """
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=TMP_SUFFIX)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        fsync_dir(directory)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sweep_orphan_tmp(root: str) -> int:
    """Delete orphaned ``*.tmp`` files under ``root``; returns the count.

    Safe to call on a missing directory (returns 0) and concurrently
    with live writers: a temp file that disappears between walk and
    unlink (its writer just renamed or cleaned it) is skipped, not an
    error.
    """
    removed = 0
    if not os.path.isdir(root):
        return removed
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if not filename.endswith(TMP_SUFFIX):
                continue
            try:
                os.unlink(os.path.join(dirpath, filename))
                removed += 1
            except OSError:
                pass
    return removed


__all__ = [
    "TMP_SUFFIX",
    "atomic_write_bytes",
    "fsync_dir",
    "sweep_orphan_tmp",
]
