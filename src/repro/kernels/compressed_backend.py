"""Compressed columnar kernel backend: delta-encoded sorted pair runs.

The third :class:`repro.kernels.base.KernelBackend`.  Committed pair
columns are stored as :class:`CompressedPairs` — a list of independent
*blocks* of up to :data:`BLOCK_PAIRS` pairs, each block delta-encoded
column-wise (frame-of-reference against the block's first pair,
zig-zag-coded deltas packed at the narrowest of 0/1/2/4/8 bytes per
column).  The dictionary's dense split numbering keeps deltas tiny, so
sorted instance tables compress to ~2–4 bytes/pair against the 16 bytes
of a flat int64 pair — the ≥4× resident-closure reduction of the
Fig-7/8 memory curves.

Design rules:

* **Block-by-block, never a full copy.**  Every primitive (the Figure-5
  merge, ⟨o, s⟩ view construction, merge-join/intersect/conflict scans)
  decompresses one bounded window at a time and re-encodes on the fly;
  transient memory is O(block + largest join key group), not O(table).
* **Delegated arithmetic.**  The actual math on a decompressed window
  runs on the vectorized NumPy kernels (the *inner* backend), so this
  module owns only the encoding and the streaming orchestration.
* **Structure sharing.**  Blocks are immutable byte strings; the merge
  reuses every block the delta does not touch by reference, so
  committed versions and snapshots share identical runs.  The
  :meth:`KernelBackend.flat_nbytes` accounting hook deduplicates shared
  blocks by identity.
* **Raw in, compressed out.**  Transient rule emissions stay in the
  inner backend's native flat type; only commit-path outputs
  (``sort_pairs``, ``merge_new``'s merged table, ``os_view``,
  ``asarray``) compress.

Byte order is the host's (little-endian on every supported platform).
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .base import KernelBackend
from .numpy_backend import NUMPY_KERNELS

#: Pairs per compression block.  Chunk boundaries elsewhere (the
#: InferredBuffers absorb path) align with these blocks because blocks
#: are the unit of sharing and of decode.
BLOCK_PAIRS = 1024

#: Per-block header: n_pairs, width_s, width_o, first_s, first_o,
#: last_s, last_o.  The first/last anchors make bisects and key-chunk
#: grouping possible without decoding.
_HEADER = struct.Struct("<HBBqqqq")

#: Serialized-stream magic.  The leading 0xff byte makes the first
#: int64 of a serialized stream negative, which no dictionary id ever
#: is — so a reader can tell a compressed stream from raw pairs.
_MAGIC = b"\xffCRPR01\n"

_WIDTHS = (1, 2, 4, 8)


def _width_for(max_value: int) -> int:
    for width in _WIDTHS:
        if max_value < 1 << (8 * width):
            return width
    raise ValueError(f"delta out of uint64 range: {max_value}")


def _encode_block(flat, start: int, n_pairs: int) -> bytes:
    """One block of ``n_pairs`` pairs from ``flat`` (an int64 ndarray)."""
    window = flat[2 * start: 2 * (start + n_pairs)]
    evens = window[0::2]
    odds = window[1::2]
    header_tail = (
        int(evens[0]), int(odds[0]), int(evens[-1]), int(odds[-1])
    )
    parts = [b"", b""]
    widths = [0, 0]
    for column, deltas in enumerate((np.diff(evens), np.diff(odds))):
        if deltas.size == 0:
            continue
        zig = (deltas.astype(np.uint64) << np.uint64(1)) ^ (
            deltas >> np.int64(63)
        ).astype(np.uint64)
        top = int(zig.max())
        if top == 0:
            continue
        width = _width_for(top)
        widths[column] = width
        parts[column] = zig.astype(f"<u{width}").tobytes()
    return (
        _HEADER.pack(n_pairs, widths[0], widths[1], *header_tail)
        + parts[0]
        + parts[1]
    )


def _decode_block(block):
    """The int64 ndarray of pairs one encoded block holds."""
    n_pairs, width_s, width_o, first_s, first_o, _, _ = _HEADER.unpack_from(
        block
    )
    out = np.empty(2 * n_pairs, dtype=np.int64)
    offset = _HEADER.size
    n_deltas = n_pairs - 1
    for column, (width, first) in enumerate(
        ((width_s, first_s), (width_o, first_o))
    ):
        target = out[column::2]
        if width:
            zig = np.frombuffer(
                block, dtype=f"<u{width}", count=n_deltas, offset=offset
            ).astype(np.uint64)
            offset += width * n_deltas
            deltas = ((zig >> np.uint64(1)) ^ (
                np.uint64(0) - (zig & np.uint64(1))
            )).view(np.int64)
            target[0] = first
            np.cumsum(deltas, out=target[1:])
            target[1:] += first
        else:
            target[:] = first
    return out


def _pair_bound(flat, s: int, o: int, *, right: bool = False) -> int:
    """Pair index of the first pair ``>= (s, o)`` (``>`` when right)."""
    low, high = 0, len(flat) // 2
    key = (s, o)
    while low < high:
        mid = (low + high) // 2
        row = (int(flat[2 * mid]), int(flat[2 * mid + 1]))
        if row < key or (right and row == key):
            low = mid + 1
        else:
            high = mid
    return low


class CompressedPairs:
    """An immutable flat pair array stored as delta-encoded blocks.

    Supports everything the generic store/rule code touches on a flat
    array — ``len``, integer indexing, contiguous slicing, iteration,
    ``tolist`` and ``tobytes`` — decoding one block at a time (with a
    one-block cache for the binary-search access patterns).
    """

    __slots__ = ("_blocks", "_anchors", "_cum", "_cache")

    def __init__(self, blocks, anchors, cum):
        self._blocks = blocks          # encoded block byte strings
        self._anchors = anchors        # (first_s, first_o, last_s, last_o)
        self._cum = cum                # cumulative pair counts, len n+1
        self._cache: Tuple[int, Optional[object]] = (-1, None)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_flat(cls, flat) -> "CompressedPairs":
        if len(flat) % 2:
            raise ValueError(
                f"pair array must have even length, got {len(flat)}"
            )
        n_pairs = len(flat) // 2
        blocks: List[bytes] = []
        anchors: List[Tuple[int, int, int, int]] = []
        cum = [0]
        for start in range(0, n_pairs, BLOCK_PAIRS):
            count = min(BLOCK_PAIRS, n_pairs - start)
            block = _encode_block(flat, start, count)
            blocks.append(block)
            anchors.append(_anchor_of(block))
            cum.append(cum[-1] + count)
        return cls(blocks, anchors, cum)

    # -- sequence protocol ----------------------------------------------
    @property
    def n_pairs(self) -> int:
        return self._cum[-1]

    def __len__(self) -> int:
        return 2 * self._cum[-1]

    def _decode(self, index: int):
        cached_index, cached = self._cache
        if cached_index == index:
            return cached
        flat = _decode_block(self._blocks[index])
        self._cache = (index, flat)
        return flat

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._slice(index)
        n_values = 2 * self._cum[-1]
        if index < 0:
            index += n_values
        if not 0 <= index < n_values:
            raise IndexError("CompressedPairs index out of range")
        pair_index, component = divmod(index, 2)
        block = bisect_right(self._cum, pair_index) - 1
        flat = self._decode(block)
        return int(flat[2 * (pair_index - self._cum[block]) + component])

    def _slice(self, index: slice):
        start, stop, step = index.indices(2 * self._cum[-1])
        if step != 1:
            raise ValueError(
                "CompressedPairs only supports contiguous slices"
            )
        if stop <= start:
            return np.empty(0, dtype=np.int64)
        first_block = bisect_right(self._cum, start // 2) - 1
        last_block = bisect_right(self._cum, (stop - 1) // 2) - 1
        parts = []
        for block in range(first_block, last_block + 1):
            flat = self._decode(block)
            lo = max(start - 2 * self._cum[block], 0)
            hi = min(stop - 2 * self._cum[block], len(flat))
            parts.append(flat[lo:hi] if (lo, hi) != (0, len(flat)) else flat)
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def iter_block_arrays(self) -> Iterator[object]:
        """Decoded int64 flat arrays, one block at a time."""
        for index in range(len(self._blocks)):
            yield self._decode(index)

    def __iter__(self):
        for flat in self.iter_block_arrays():
            for value in flat:
                yield int(value)

    def tolist(self) -> List[int]:
        out: List[int] = []
        for flat in self.iter_block_arrays():
            out.extend(int(value) for value in flat)
        return out

    def tobytes(self) -> bytes:
        """The *raw* host-order int64 image (decompressed copy)."""
        return b"".join(flat.tobytes() for flat in self.iter_block_arrays())

    # -- accounting & sharing -------------------------------------------
    def nbytes(self, seen: Optional[set] = None) -> int:
        """Resident encoded bytes; shared blocks counted once via ``seen``."""
        total = 0
        for block in self._blocks:
            if seen is not None:
                key = id(block)
                if key in seen:
                    continue
                seen.add(key)
            total += len(block)
        return total

    # -- serialization --------------------------------------------------
    def serialize(self) -> bytes:
        """Self-describing byte stream (persistence)."""
        parts = [_MAGIC, struct.pack("<qq", self.n_pairs, len(self._blocks))]
        for block in self._blocks:
            parts.append(struct.pack("<q", len(block)))
            parts.append(bytes(block))
        return b"".join(parts)

    @classmethod
    def deserialize(cls, buffer) -> "CompressedPairs":
        view = memoryview(buffer)
        if bytes(view[: len(_MAGIC)]) != _MAGIC:
            raise ValueError("not a serialized CompressedPairs stream")
        n_pairs, n_blocks = struct.unpack_from("<qq", view, len(_MAGIC))
        offset = len(_MAGIC) + 16
        blocks: List[bytes] = []
        anchors: List[Tuple[int, int, int, int]] = []
        cum = [0]
        for _ in range(n_blocks):
            (length,) = struct.unpack_from("<q", view, offset)
            offset += 8
            # Copy out of the backing buffer: encoded blocks are small
            # (that is the point), and owning them keeps block lifetime
            # independent of the buffer's.
            block = bytes(view[offset: offset + length])
            offset += length
            blocks.append(block)
            anchors.append(_anchor_of(block))
            cum.append(cum[-1] + _HEADER.unpack_from(block)[0])
        if cum[-1] != n_pairs:
            raise ValueError(
                f"corrupt CompressedPairs stream: {cum[-1]} pairs decoded, "
                f"{n_pairs} declared"
            )
        return cls(blocks, anchors, cum)


def _anchor_of(block) -> Tuple[int, int, int, int]:
    header = _HEADER.unpack_from(block)
    return (header[3], header[4], header[5], header[6])


class _BlockEncoder:
    """Accumulates pairs (int64 flats) into encoded blocks."""

    def __init__(self):
        self._blocks: List[bytes] = []
        self._anchors: List[Tuple[int, int, int, int]] = []
        self._cum = [0]
        self._pending = None  # int64 flat, < BLOCK_PAIRS pairs

    def extend(self, flat) -> None:
        if not len(flat):
            return
        if self._pending is not None and len(self._pending):
            flat = NUMPY_KERNELS.concat([self._pending, flat])
            self._pending = None
        n_pairs = len(flat) // 2
        start = 0
        while n_pairs - start >= BLOCK_PAIRS:
            self._emit(flat, start, BLOCK_PAIRS)
            start += BLOCK_PAIRS
        if start < n_pairs:
            self._pending = flat[2 * start:]

    def append_encoded(self, block, anchor, count: int) -> None:
        """Adopt an already-encoded block by reference (sharing)."""
        self._flush_pending()
        self._blocks.append(block)
        self._anchors.append(anchor)
        self._cum.append(self._cum[-1] + count)

    def _emit(self, flat, start: int, count: int) -> None:
        block = _encode_block(flat, start, count)
        self._blocks.append(block)
        self._anchors.append(_anchor_of(block))
        self._cum.append(self._cum[-1] + count)

    def _flush_pending(self) -> None:
        if self._pending is not None and len(self._pending):
            self._emit(self._pending, 0, len(self._pending) // 2)
        self._pending = None

    def finish(self) -> CompressedPairs:
        self._flush_pending()
        return CompressedPairs(self._blocks, self._anchors, self._cum)


class CompressedKernels(KernelBackend):
    """Delta-block compressed kernels (see module docstring)."""

    name = "compressed"

    #: The delegate backend doing the decompressed-window math.
    _inner = NUMPY_KERNELS
    inner_name = NUMPY_KERNELS.name

    # -- representation -------------------------------------------------
    def asarray(self, flat):
        if isinstance(flat, CompressedPairs):
            return flat
        return CompressedPairs.from_flat(self._inner.asarray(flat))

    def empty(self):
        return CompressedPairs([], [], [0])

    def concat(self, chunks: Sequence):
        parts = []
        for chunk in chunks:
            if isinstance(chunk, CompressedPairs):
                parts.extend(chunk.iter_block_arrays())
            elif len(chunk):
                parts.append(chunk)
        if not parts:
            return self._inner.empty()
        return self._inner.concat(parts)

    # -- decompression helpers ------------------------------------------
    def _raw(self, flat):
        """A full int64 image (only for *transient* inputs)."""
        if isinstance(flat, CompressedPairs):
            return self.concat([flat])
        return self._inner.asarray(flat)

    def _key_chunks(self, view) -> Iterator[object]:
        """int64 chunks; no even-key group spans two chunks."""
        if not isinstance(view, CompressedPairs):
            if len(view):
                yield self._inner.asarray(view)
            return
        pending = None
        n_blocks = len(view._blocks)
        for index in range(n_blocks):
            flat = view._decode(index)
            if pending is not None:
                flat = self._inner.concat([pending, flat])
                pending = None
            if index + 1 < n_blocks and \
                    view._anchors[index + 1][0] == int(flat[-2]):
                # The trailing key group continues into the next block:
                # hold the group back, emit the completed groups.
                cut = self._inner.key_lower_bound(flat, int(flat[-2]))
                if cut > 0:
                    yield flat[: 2 * cut]
                    pending = flat[2 * cut:]
                else:
                    pending = flat
            else:
                yield flat
        if pending is not None and len(pending):
            yield pending

    def _key_windows(self, view1, view2):
        """Chunk pairs whose key ranges overlap, each pair at most once."""
        stream1 = self._key_chunks(view1)
        stream2 = self._key_chunks(view2)
        chunk1 = next(stream1, None)
        chunk2 = next(stream2, None)
        while chunk1 is not None and chunk2 is not None:
            last1 = int(chunk1[-2])
            last2 = int(chunk2[-2])
            if last1 < int(chunk2[0]):
                chunk1 = next(stream1, None)
                continue
            if last2 < int(chunk1[0]):
                chunk2 = next(stream2, None)
                continue
            yield chunk1, chunk2
            if last1 <= last2:
                chunk1 = next(stream1, None)
            if last2 <= last1:
                chunk2 = next(stream2, None)

    # -- sorting & the Figure-5 merge -----------------------------------
    def sort_pairs(self, flat, *, dedup: bool = True):
        sorted_flat = self._inner.sort_pairs(self._raw(flat), dedup=dedup)
        return CompressedPairs.from_flat(sorted_flat)

    def merge_new(self, main, inferred):
        inferred_raw = self._raw(inferred)
        if not len(inferred_raw):
            main_c = main if isinstance(main, CompressedPairs) \
                else self.asarray(main)
            return main_c, self._inner.empty()
        if not isinstance(main, CompressedPairs):
            main = self.asarray(main)
        if not len(main):
            fresh = CompressedPairs.from_flat(inferred_raw)
            return fresh, inferred_raw
        # Partition the (sorted-unique) delta across the block starts so
        # untouched blocks are reused by reference.
        encoder = _BlockEncoder()
        new_parts = []
        n_blocks = len(main._blocks)
        lo = 0
        for index in range(n_blocks):
            if index + 1 < n_blocks:
                next_s, next_o = main._anchors[index + 1][0], \
                    main._anchors[index + 1][1]
                hi = _pair_bound(inferred_raw, next_s, next_o)
            else:
                hi = len(inferred_raw) // 2
            count = main._cum[index + 1] - main._cum[index]
            if lo == hi:
                encoder.append_encoded(
                    main._blocks[index], main._anchors[index], count
                )
            else:
                block_flat = main._decode(index)
                merged, new = self._inner.merge_new(
                    block_flat, inferred_raw[2 * lo: 2 * hi]
                )
                encoder.extend(merged)
                if len(new):
                    new_parts.append(new)
            lo = hi
        merged_c = encoder.finish()
        if not new_parts:
            return merged_c, self._inner.empty()
        return merged_c, self._inner.concat(new_parts)

    # -- views ----------------------------------------------------------
    def swap(self, flat):
        if isinstance(flat, CompressedPairs):
            parts = [
                self._inner.swap(block) for block in flat.iter_block_arrays()
            ]
            if not parts:
                return self._inner.empty()
            return self._inner.concat(parts)
        return self._inner.swap(flat)

    def os_view(self, sorted_pairs):
        if not isinstance(sorted_pairs, CompressedPairs):
            sorted_pairs = self.asarray(sorted_pairs)
        # Swap+sort each block into an independent sorted run, then fold
        # the runs pairwise with a streaming bounded-window merge.
        runs = [
            CompressedPairs.from_flat(
                self._inner.sort_pairs(self._inner.swap(block), dedup=False)
            )
            for block in sorted_pairs.iter_block_arrays()
        ]
        if not runs:
            return self.empty()
        while len(runs) > 1:
            folded = [
                self._merge_runs(runs[i], runs[i + 1])
                for i in range(0, len(runs) - 1, 2)
            ]
            if len(runs) % 2:
                folded.append(runs[-1])
            runs = folded
        return runs[0]

    def _merge_runs(self, run1: CompressedPairs,
                    run2: CompressedPairs) -> CompressedPairs:
        if not len(run1):
            return run2
        if not len(run2):
            return run1
        encoder = _BlockEncoder()
        stream1 = run1.iter_block_arrays()
        stream2 = run2.iter_block_arrays()
        chunk1 = next(stream1, None)
        chunk2 = next(stream2, None)
        while chunk1 is not None and chunk2 is not None:
            last1 = (int(chunk1[-2]), int(chunk1[-1]))
            last2 = (int(chunk2[-2]), int(chunk2[-1]))
            if last1 <= last2:
                cut = _pair_bound(chunk2, last1[0], last1[1], right=True)
                encoder.extend(self._inner.sort_pairs(
                    self._inner.concat([chunk1, chunk2[: 2 * cut]]),
                    dedup=False,
                ))
                chunk2 = chunk2[2 * cut:] if cut else chunk2
                if not len(chunk2):
                    chunk2 = next(stream2, None)
                chunk1 = next(stream1, None)
            else:
                cut = _pair_bound(chunk1, last2[0], last2[1], right=True)
                encoder.extend(self._inner.sort_pairs(
                    self._inner.concat([chunk2, chunk1[: 2 * cut]]),
                    dedup=False,
                ))
                chunk1 = chunk1[2 * cut:] if cut else chunk1
                if not len(chunk1):
                    chunk1 = next(stream1, None)
                chunk2 = next(stream2, None)
        for chunk in ([chunk1] if chunk1 is not None else []):
            encoder.extend(chunk)
        for chunk in stream1:
            encoder.extend(chunk)
        for chunk in ([chunk2] if chunk2 is not None else []):
            encoder.extend(chunk)
        for chunk in stream2:
            encoder.extend(chunk)
        return encoder.finish()

    # -- join primitives ------------------------------------------------
    def merge_join(self, view1, view2, *, swap: bool = False):
        parts = [
            self._inner.merge_join(chunk1, chunk2, swap=swap)
            for chunk1, chunk2 in self._key_windows(view1, view2)
        ]
        parts = [part for part in parts if len(part)]
        if not parts:
            return self._inner.empty()
        return self._inner.concat(parts)

    def intersect(self, view1, view2):
        parts = [
            self._inner.intersect(chunk1, chunk2)
            for chunk1, chunk2 in self._key_windows(view1, view2)
        ]
        parts = [part for part in parts if len(part)]
        if not parts:
            return self._inner.empty()
        return self._inner.concat(parts)

    def difference(self, flat, other):
        return self._inner.difference(self._raw(flat), self._raw(other))

    def consecutive_in_group(self, view):
        parts = [
            self._inner.consecutive_in_group(chunk)
            for chunk in self._key_chunks(view)
        ]
        parts = [part for part in parts if len(part)]
        if not parts:
            return self._inner.empty()
        return self._inner.concat(parts)

    # -- scans & lookups ------------------------------------------------
    def distinct_evens(self, sorted_flat) -> Sequence[int]:
        if not isinstance(sorted_flat, CompressedPairs):
            return self._inner.distinct_evens(sorted_flat)
        out: List[int] = []
        for block in sorted_flat.iter_block_arrays():
            for key in self._inner.distinct_evens(block):
                key = int(key)
                if not out or out[-1] != key:
                    out.append(key)
        return out

    def pair_with_constant(
        self, values: Iterable[int], constant: int,
        *, constant_as_object: bool = True,
    ):
        return self._inner.pair_with_constant(
            values, constant, constant_as_object=constant_as_object
        )

    def key_slice(self, sorted_flat, key: int) -> Tuple[int, int]:
        if not isinstance(sorted_flat, CompressedPairs):
            return self._inner.key_slice(sorted_flat, key)
        return (
            self._key_bound(sorted_flat, key, right=False),
            self._key_bound(sorted_flat, key, right=True),
        )

    def key_lower_bound(self, sorted_flat, key: int) -> int:
        if not isinstance(sorted_flat, CompressedPairs):
            return self._inner.key_lower_bound(sorted_flat, key)
        return self._key_bound(sorted_flat, key, right=False)

    def _key_bound(self, pairs: CompressedPairs, key: int,
                   *, right: bool) -> int:
        """Global pair index via the block anchors + one block decode."""
        anchors = pairs._anchors
        low, high = 0, len(anchors)
        while low < high:
            mid = (low + high) // 2
            last_s = anchors[mid][2]
            if last_s < key or (right and last_s == key):
                low = mid + 1
            else:
                high = mid
        if low == len(anchors):
            return pairs.n_pairs
        flat = pairs._decode(low)
        if right:
            _, end = self._inner.key_slice(flat, key)
            return pairs._cum[low] + end
        return pairs._cum[low] + self._inner.key_lower_bound(flat, key)

    def select_in_ranges(self, sorted_values, ranges) -> Sequence[int]:
        return self._inner.select_in_ranges(sorted_values, ranges)

    # -- columns (always decoded: the inner backend's own) ---------------
    def index_by_key(self, column):
        return self._inner.index_by_key(column)

    def interleave(self, evens, odds):
        return self._inner.interleave(evens, odds)

    def take(self, column, indices):
        return self._inner.take(column, indices)

    def where_equal(self, column1, column2):
        return self._inner.where_equal(column1, column2)

    def repeat(self, values, counts):
        return self._inner.repeat(values, counts)

    def cross_intervals(
        self,
        member_lows,
        member_counts,
        interval_counts,
        interval_lows,
        interval_highs,
        relabel,
    ):
        # A transient rule emission: stays in the inner native type.
        return self._inner.cross_intervals(
            member_lows,
            member_counts,
            interval_counts,
            interval_lows,
            interval_highs,
            relabel,
        )

    # -- accounting -----------------------------------------------------
    def flat_nbytes(self, flat, seen: Optional[set] = None) -> int:
        if isinstance(flat, CompressedPairs):
            return flat.nbytes(seen)
        return KernelBackend.flat_nbytes(self, flat, seen)
