"""Durable file operations: the one module that fsyncs, replaces and truncates.

The store file (:func:`repro.core.store_file.write_store`) and the
serving write-ahead log (:mod:`repro.serving.wal`) put bytes on disk
only through these functions, so the crash behaviour of both is the
crash behaviour of this module:

* :func:`write_atomically` — a same-directory temp file, fsynced, then
  ``os.replace``\\ d over the target and the directory fsynced: a crash
  leaves the old file or the new one, never a mix;
* :func:`remove_orphaned_temps` — delete the temp files that writes
  killed before their rename left beside a target;
* :func:`append` — write, flush to the OS, and fsync when asked;
* :func:`truncate_file` — cut a file to a length, durably;
* :func:`fsync_file` / :func:`fsync_directory` — the two syncs the
  others are built from.

Callers reach these through the module (``durable.append(...)``) and
the functions call one another by their module-global names, so a test
that replaces one (``monkeypatch.setattr(durable, "fsync_file", ...)``)
fails or stalls every durable write at exactly that step.
"""

from __future__ import annotations

import contextlib
import os
import re
import stat
import tempfile
from typing import IO, Iterable, List

__all__ = [
    "append",
    "fsync_directory",
    "fsync_file",
    "remove_orphaned_temps",
    "truncate_file",
    "write_atomically",
]


def fsync_file(handle: IO[bytes]) -> None:
    """Flush ``handle``'s buffer and force its file to disk."""
    handle.flush()
    os.fsync(handle.fileno())


def fsync_directory(directory: str) -> None:
    """Force a directory's entry table to disk (best effort).

    Needed after a create or ``os.replace`` for the new name itself to
    survive power loss.  Some filesystems refuse to fsync a directory;
    that only costs durability of the name, never atomicity, so
    failures are ignored.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


#: The part ``mkstemp`` puts between a temp file's prefix and suffix:
#: eight characters of ``tempfile``'s name alphabet.
_MKSTEMP_RANDOM = re.compile(r"[a-z0-9_]{8}")
_TEMP_SUFFIX = ".tmp"


def write_atomically(path: str, chunks: Iterable[bytes]) -> int:
    """Replace ``path`` with the concatenated ``chunks``; returns the
    number of bytes written.

    A replaced file keeps its permission bits; a new one gets
    ``mkstemp``'s owner-only mode.  A failure before the rename removes
    the temp file and leaves ``path`` as it was (or absent, if it was).
    """
    target = os.path.abspath(path)
    directory = os.path.dirname(target)
    fd, tmp_path = tempfile.mkstemp(
        dir=directory,
        prefix=os.path.basename(target) + ".",
        suffix=_TEMP_SUFFIX,
    )
    written = 0
    try:
        with contextlib.suppress(FileNotFoundError):
            os.chmod(tmp_path, stat.S_IMODE(os.stat(target).st_mode))
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                written += handle.write(chunk)
            fsync_file(handle)
        os.replace(tmp_path, target)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    return written


def remove_orphaned_temps(path: str) -> List[str]:
    """Delete the temp files of :func:`write_atomically` calls on
    ``path`` that died before their rename; returns the names removed.

    A process killed mid-write runs no cleanup, so its
    ``<name>.<8 random chars>.tmp`` stays beside the target, as large
    as what it was writing.  Only that exact shape matches: a user's
    ``<name>.backup.tmp`` survives.  Call it only while no write to
    ``path`` is in flight.
    """
    directory, name = os.path.split(os.path.abspath(path))
    prefix = name + "."
    try:
        entries = os.listdir(directory)
    except FileNotFoundError:
        return []
    removed = []
    for entry in entries:
        if (
            entry.startswith(prefix)
            and entry.endswith(_TEMP_SUFFIX)
            and _MKSTEMP_RANDOM.fullmatch(
                entry[len(prefix):-len(_TEMP_SUFFIX)]
            )
        ):
            with contextlib.suppress(FileNotFoundError):
                os.unlink(os.path.join(directory, entry))
                removed.append(entry)
    return removed


def append(handle: IO[bytes], data: bytes, *, fsync: bool) -> None:
    """Write ``data`` at the end of ``handle`` and flush it to the OS;
    with ``fsync``, also force it to disk before returning."""
    handle.write(data)
    if fsync:
        fsync_file(handle)
    else:
        handle.flush()


def truncate_file(path: str, size: int) -> None:
    """Cut the file at ``path`` to ``size`` bytes, durably."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        fsync_file(handle)
