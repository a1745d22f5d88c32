"""Write-ahead log for the reasoning server's mutation stream.

Durability contract: an acknowledged write (``202``/``200`` from
``POST /add`` / ``POST /remove``) is appended — and, under the default
``always`` fsync policy, fsynced — to the WAL *before* the
acknowledgment leaves the server.  A kill -9 at any later point loses
nothing: on the next boot :meth:`WriteAheadLog.replay_into` re-applies
every record that was not yet covered by a checkpoint.

Checkpoints bound replay work: after a successful flush the server
saves the store (``Store.save`` is atomic, format v4) and calls
:meth:`WriteAheadLog.checkpoint` with the highest flushed sequence
number, which compacts the log down to the still-unflushed tail via
the same write-temp-then-``os.replace`` dance.

Replay is **at-least-once**: a record whose flush landed but whose
checkpoint did not is re-applied on boot.  That is safe because
mutations are idempotent set operations — adding a present triple or
removing an absent one is a no-op, so replaying a prefix of already
applied records converges to the same closure.

On-disk layout: an 11-byte magic followed by records of
``<QBI`` (sequence, kind, payload length) + N-Triples payload +
``<I`` CRC32 over header+payload.  A torn tail (partial record from a
crash mid-append) is detected by length/CRC, dropped with a warning,
and truncated away — records *behind* it were fsynced before any ack,
so only never-acknowledged bytes can tear.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import warnings
import zlib
from typing import IO, List, Optional, Sequence, Tuple

from ..faults import fire as _fire_fault
from ..rdf.ntriples import parse as _parse_ntriples
from ..rdf.terms import Triple

__all__ = ["FSYNC_POLICIES", "WALCorruptionError", "WriteAheadLog"]

WAL_MAGIC = b"REPRO-WAL1\n"

#: ``always`` — fsync per append, before the ack (zero acknowledged
#: writes lost, even to power failure).  ``batch`` — flush to the OS
#: per append, fsync only at checkpoints (kill -9 loses nothing; a
#: power failure may lose the tail).  ``never`` — leave syncing to the
#: OS entirely.
FSYNC_POLICIES = ("always", "batch", "never")

_KINDS = ("add", "remove")
_HEADER = struct.Struct("<QBI")
_CRC = struct.Struct("<I")


class WALCorruptionError(ValueError):
    """The write-ahead log is damaged beyond a torn tail."""


class WriteAheadLog:
    """Append-only mutation log with checkpoint compaction.

    The server appends on a dedicated single-thread executor and
    checkpoints on the flush thread, so the two can overlap: a lock
    makes each append, sync, checkpoint and close atomic with respect
    to the others (an append never meets the handle mid-compaction).
    """

    def __init__(self, path: str, *, fsync_policy: str = "always"):
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"unknown fsync policy {fsync_policy!r} "
                f"(expected one of {FSYNC_POLICIES})"
            )
        self.path = os.path.abspath(path)
        self.fsync_policy = fsync_policy
        self.appended_total = 0
        self.checkpoints_total = 0
        self.torn_records_dropped = 0
        self.last_checkpoint_at: Optional[float] = None
        #: Records appended (or recovered) and not yet checkpointed:
        #: ``(seq, kind, payload bytes)``.
        self._pending: List[Tuple[int, str, bytes]] = []
        self._next_seq = 1
        self._handle: Optional[IO[bytes]] = None
        self._lock = threading.Lock()
        self._recover()

    # ------------------------------------------------------------------
    # Boot-time recovery
    # ------------------------------------------------------------------
    def _recover(self) -> None:
        """Scan the existing log, keep the valid prefix, drop the tail."""
        if not os.path.exists(self.path):
            self._open_fresh()
            return
        with open(self.path, "rb") as handle:
            blob = handle.read()
        if not blob:
            self._open_fresh()
            return
        if not blob.startswith(WAL_MAGIC):
            raise WALCorruptionError(
                f"{self.path!r} is not a repro WAL (bad magic)"
            )
        offset = len(WAL_MAGIC)
        valid_end = offset
        while offset < len(blob):
            if offset + _HEADER.size > len(blob):
                break  # torn header
            seq, kind_code, length = _HEADER.unpack_from(blob, offset)
            end = offset + _HEADER.size + length + _CRC.size
            if kind_code >= len(_KINDS) or end > len(blob):
                break  # torn or garbage record
            payload = blob[offset + _HEADER.size : end - _CRC.size]
            (crc,) = _CRC.unpack_from(blob, end - _CRC.size)
            if crc != zlib.crc32(blob[offset : end - _CRC.size]):
                break  # torn mid-payload
            self._pending.append((seq, _KINDS[kind_code], payload))
            self._next_seq = seq + 1
            valid_end = end
            offset = end
        if valid_end < len(blob):
            self.torn_records_dropped += 1
            warnings.warn(
                f"repro WAL {self.path!r}: dropping "
                f"{len(blob) - valid_end} torn trailing bytes (crash "
                "mid-append; the torn record was never acknowledged)",
                RuntimeWarning,
            )
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_end)
                handle.flush()
                os.fsync(handle.fileno())
        self._handle = open(self.path, "ab")

    def _open_fresh(self) -> None:
        self._handle = open(self.path, "ab")
        if self._handle.tell() == 0:
            self._handle.write(WAL_MAGIC)
            self._handle.flush()
            os.fsync(self._handle.fileno())
            _fsync_parent_dir(self.path)

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Records appended (or recovered) and not yet checkpointed."""
        return len(self._pending)

    @property
    def last_seq(self) -> int:
        """The highest sequence number ever appended (0 when none)."""
        return self._next_seq - 1

    def append(self, kind: str, triples: Sequence[Triple]) -> int:
        """Durably append one mutation; returns its sequence number."""
        with self._lock:
            if self._handle is None:
                raise ValueError("write-ahead log is closed")
            _fire_fault("serving.wal", self.path)
            kind_code = _KINDS.index(kind)
            payload = "\n".join(t.n3() for t in triples).encode("utf-8")
            seq = self._next_seq
            record = _HEADER.pack(seq, kind_code, len(payload)) + payload
            record += _CRC.pack(zlib.crc32(record))
            self._handle.write(record)
            self._handle.flush()
            if self.fsync_policy == "always":
                os.fsync(self._handle.fileno())
            self._next_seq = seq + 1
            self._pending.append((seq, kind, payload))
            self.appended_total += 1
            return seq

    def sync(self) -> None:
        """Force appended records to disk (used by the batch policy)."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()
                os.fsync(self._handle.fileno())

    # ------------------------------------------------------------------
    # Replay and checkpointing
    # ------------------------------------------------------------------
    def replay_into(self, store) -> int:
        """Apply every pending record to ``store``; returns the count.

        The records stay pending until the next :meth:`checkpoint`
        (at-least-once: a crash between replay and checkpoint just
        replays them again).
        """
        for _, kind, payload in self._pending:
            triples = list(_parse_ntriples(payload.decode("utf-8")))
            if kind == "add":
                store.add(triples)
            else:
                store.remove(triples)
        return len(self._pending)

    def checkpoint(self, upto_seq: int) -> None:
        """Drop records with ``seq <= upto_seq``; compact atomically.

        Called after the store state covering those records was durably
        saved.  The surviving tail is rewritten to a temp file that
        atomically replaces the log, so a crash mid-checkpoint leaves
        either the old log or the compacted one — both replayable.
        """
        with self._lock:
            if self._handle is None:
                raise ValueError("write-ahead log is closed")
            keep = [entry for entry in self._pending if entry[0] > upto_seq]
            self._handle.flush()
            self._handle.close()
            self._handle = None
            tmp_path = f"{self.path}.compact.tmp"
            try:
                with open(tmp_path, "wb") as handle:
                    handle.write(WAL_MAGIC)
                    for seq, kind, payload in keep:
                        record = _HEADER.pack(
                            seq, _KINDS.index(kind), len(payload)
                        )
                        record += payload
                        record += _CRC.pack(zlib.crc32(record))
                        handle.write(record)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                self._handle = open(self.path, "ab")
                raise
            _fsync_parent_dir(self.path)
            self._pending = keep
            self.checkpoints_total += 1
            self.last_checkpoint_at = time.monotonic()
            self._handle = open(self.path, "ab")

    def close(self) -> None:
        """Flush and close the log handle (the file keeps its records)."""
        with self._lock:
            if self._handle is None:
                return
            self._handle.flush()
            if self.fsync_policy != "never":
                os.fsync(self._handle.fileno())
            self._handle.close()
            self._handle = None


def _fsync_parent_dir(path: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or os.curdir
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
