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
number, which compacts the log down to the still-unflushed tail with
the same atomic replace.  Every append, sync, rewrite and truncate
goes through :mod:`repro.durable`.

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
so only never-acknowledged bytes can tear.  A file torn inside the
magic itself (a crash while the log was being created) opens as an
empty log.
"""

from __future__ import annotations

import os
import struct
import threading
import time
import warnings
import zlib
from typing import IO, List, Optional, Sequence, Tuple

from .. import durable
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
        if len(blob) < len(WAL_MAGIC) and WAL_MAGIC.startswith(blob):
            # Empty, or torn inside the magic by a crash in _open_fresh
            # before its fsync: no record can have been acked yet.
            durable.truncate_file(self.path, 0)
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
            durable.truncate_file(self.path, valid_end)
        self._handle = open(self.path, "ab")

    def _open_fresh(self) -> None:
        self._handle = open(self.path, "ab")
        if self._handle.tell() == 0:
            durable.append(self._handle, WAL_MAGIC, fsync=True)
            durable.fsync_directory(os.path.dirname(self.path))

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
            payload = "\n".join(t.n3() for t in triples).encode("utf-8")
            seq = self._next_seq
            durable.append(
                self._handle,
                _frame(seq, kind, payload),
                fsync=self.fsync_policy == "always",
            )
            self._next_seq = seq + 1
            self._pending.append((seq, kind, payload))
            self.appended_total += 1
            return seq

    def sync(self) -> None:
        """Force appended records to disk (used by the batch policy)."""
        with self._lock:
            if self._handle is not None:
                durable.fsync_file(self._handle)

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
            self._handle.close()
            try:
                durable.write_atomically(
                    self.path, [WAL_MAGIC, *(_frame(*entry) for entry in keep)]
                )
            finally:
                self._handle = open(self.path, "ab")
            self._pending = keep
            self.checkpoints_total += 1
            self.last_checkpoint_at = time.monotonic()

    def close(self) -> None:
        """Flush and close the log handle (the file keeps its records)."""
        with self._lock:
            if self._handle is None:
                return
            if self.fsync_policy != "never":
                durable.fsync_file(self._handle)
            self._handle.close()
            self._handle = None


def _frame(seq: int, kind: str, payload: bytes) -> bytes:
    """One on-disk record: header, payload, CRC32 over both."""
    record = _HEADER.pack(seq, _KINDS.index(kind), len(payload)) + payload
    return record + _CRC.pack(zlib.crc32(record))
