"""NumPy kernel backend: vectorized pair-array primitives.

Same semantics as :mod:`repro.kernels.python_backend`, executed as
whole-array NumPy operations over ``int64`` vectors:

* sort+dedup — ``np.lexsort`` on the (object, subject) key pair
  followed by a boundary-mask dedup (no second sort);
* Figure-5 merge — row membership via ``np.searchsorted`` on a
  structured ⟨s, o⟩ row view (exact for the full int64 range — no
  lossy composite-key packing), then a stable timsort of the
  concatenated runs, which is linear on two sorted inputs;
* small-side merge and difference — when one side is at most
  1/:data:`SMALL_SIDE_RATIO` of the other (a served write's delta
  against a large table), its rows are located by one binary search
  each and the result is copied run by run between them (one flat
  ``np.insert`` / ``np.delete`` for an edit too large for
  :data:`RUN_COPY_MAX_ROWS` / :data:`RUN_COPY_RATIO`): O(k log n) plus
  one copy, no pass over the large side's keys;
* ⟨o, s⟩ view — one lexsort of the swapped components;
* merge-join — group boundaries from boundary masks,
  ``np.intersect1d`` on the distinct keys, and the per-key cross
  products materialized with the repeat/offset trick (no Python-level
  loop over matches);
* θ closure emission — every component member × its reach intervals,
  expanded with the same trick (no loop over members or pairs).

The dictionary's dense flat-int encoding (ids are small consecutive
ints) is what makes the store's pair arrays directly usable as NumPy
vectors; ``array('q')`` inputs are adopted zero-copy through the buffer
protocol.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence, Tuple

import numpy as np

from .base import KernelBackend, is_small_side

INT64 = np.int64

#: Structured dtype giving lexicographic row order on ⟨even, odd⟩ —
#: used for exact row-wise searchsorted/merge without packing two
#: int64s into one key.
PAIR_DTYPE = np.dtype([("s", "<i8"), ("o", "<i8")])


#: A component packs when its *range* (max − min) fits in 32 bits: the
#: pair is rebased to its component minima and packed into one uint64
#: key (((even − e₀) << 32) | (odd − o₀)), whose natural order equals
#: the lexicographic pair order.  Rebasing matters: the dictionary's
#: dense split numbering clusters property ids just below and resource
#: ids just above 2³², so absolute values exceed 32 bits on every real
#: workload while the *spread* stays tiny.  Ranges ≥ 2³² fall back to
#: the structured row path.
PACK_LIMIT = 1 << 32

_SHIFT = np.uint64(32)
_LOW_MASK = np.uint64(PACK_LIMIT - 1)


def _pack_bases(evens: np.ndarray, odds: np.ndarray):
    """(e₀, o₀) rebase offsets for one array, or None if out of range."""
    e_min, e_max = int(evens.min()), int(evens.max())
    o_min, o_max = int(odds.min()), int(odds.max())
    if e_max - e_min >= PACK_LIMIT or o_max - o_min >= PACK_LIMIT:
        return None
    return e_min, o_min


def _pack_rebased(
    evens: np.ndarray, odds: np.ndarray, e_base: int, o_base: int
) -> np.ndarray:
    return ((evens - e_base).astype(np.uint64) << _SHIFT) | (
        odds - o_base
    ).astype(np.uint64)


def _pack(evens: np.ndarray, odds: np.ndarray):
    """(packed keys, e₀, o₀) for one array, or None when unpackable."""
    if evens.size == 0:
        return np.empty(0, dtype=np.uint64), 0, 0
    bases = _pack_bases(evens, odds)
    if bases is None:
        return None
    return _pack_rebased(evens, odds, *bases), bases[0], bases[1]


def _pack_joint(a: np.ndarray, b: np.ndarray):
    """Pack two flat pair arrays against shared rebase offsets.

    Shared offsets keep the two key sets mutually comparable (merge and
    intersection need one total order across both inputs).  Returns
    (packed_a, packed_b, e₀, o₀) or None.
    """
    e_min = min(int(a[0::2].min()), int(b[0::2].min()))
    e_max = max(int(a[0::2].max()), int(b[0::2].max()))
    o_min = min(int(a[1::2].min()), int(b[1::2].min()))
    o_max = max(int(a[1::2].max()), int(b[1::2].max()))
    if e_max - e_min >= PACK_LIMIT or o_max - o_min >= PACK_LIMIT:
        return None
    return (
        _pack_rebased(a[0::2], a[1::2], e_min, o_min),
        _pack_rebased(b[0::2], b[1::2], e_min, o_min),
        e_min,
        o_min,
    )


def _joint_keys(a: np.ndarray, b: np.ndarray):
    """Mutually comparable row keys of two non-empty flat pair arrays:
    (keys_a, keys_b, e₀, o₀) packed, else structured rows and Nones."""
    joint = _pack_joint(a, b)
    if joint is not None:
        return joint
    return _rows(a), _rows(b), None, None


#: An edit of k rows to an n-row array copies the rows it keeps run by
#: run, one slice per gap, when k ≤ RUN_COPY_MAX_ROWS and
#: k · RUN_COPY_RATIO ≤ n; otherwise one flat ``np.insert`` /
#: ``np.delete``, whose index and mask passes then cost less than a
#: slice per row.  Swept over 1–256 rows against 1 k–0.7 M-row arrays,
#: and replayed on the ledger's add and delete edits.
RUN_COPY_MAX_ROWS = 64
RUN_COPY_RATIO = 512


def _copies_runs(k: int, values: int, width: int) -> bool:
    return k <= RUN_COPY_MAX_ROWS and k * RUN_COPY_RATIO * width <= values


def _insert_rows(flat: np.ndarray, at: np.ndarray, rows: np.ndarray):
    """``flat`` with the flat pair rows ``rows`` inserted before pair
    rows ``at`` (ascending)."""
    if not _copies_runs(at.size, flat.size, 2):
        return np.insert(flat, np.repeat(2 * at, 2), rows)
    pieces, kept = [], 0
    for row, cut in enumerate((2 * at).tolist()):
        pieces += (flat[kept:cut], rows[2 * row : 2 * row + 2])
        kept = cut
    pieces.append(flat[kept:])
    return np.concatenate(pieces)


def delete_rows(flat: np.ndarray, at: np.ndarray, width: int) -> np.ndarray:
    """``flat``, rows of ``width`` values, without the rows ``at``
    (ascending, distinct)."""
    if not _copies_runs(at.size, flat.size, width):
        return np.delete(flat, (width * at[:, None] + np.arange(width)).ravel())
    cuts = (width * at).tolist()
    starts = [0, *(cut + width for cut in cuts)]
    return np.concatenate(
        [flat[start:end] for start, end in zip(starts, [*cuts, flat.size])]
    )


#: ``where_present`` compares a row with every table row of its even
#: component while those runs average at most this many rows, and
#: binary-searches whole rows otherwise.  The search is a worst-case
#: bound for hub subjects (a scan costs their whole run per row); the
#: benchmark's datasets have short runs and always scan.  Swept over
#: runs of 4–1024 rows and 1–1000 rows searched in a 200 k-row table:
#: the scan wins up to runs of ≈256.
SCAN_RUN_ROWS = 128


def _locate(haystack: np.ndarray, needles: np.ndarray):
    """(insertion indices, found mask) of ``needles`` in the sorted,
    non-empty ``haystack``: one binary search per needle."""
    positions = np.searchsorted(haystack, needles)
    clipped = np.minimum(positions, haystack.size - 1)
    found = (positions < haystack.size) & (haystack[clipped] == needles)
    return positions, found


def _unpack(packed: np.ndarray, e_base: int, o_base: int) -> np.ndarray:
    """Packed uint64 keys → flat int64 pair array (offsets restored)."""
    out = np.empty(2 * packed.size, dtype=INT64)
    out[0::2] = (packed >> _SHIFT).astype(INT64)
    out[0::2] += e_base
    out[1::2] = (packed & _LOW_MASK).astype(INT64)
    out[1::2] += o_base
    return out


def _rows(flat: np.ndarray) -> np.ndarray:
    """Structured row view of a flat pair array (zero-copy)."""
    return np.ascontiguousarray(flat).reshape(-1, 2).view(PAIR_DTYPE).ravel()


def _interleave(evens: np.ndarray, odds: np.ndarray) -> np.ndarray:
    out = np.empty(2 * evens.size, dtype=INT64)
    out[0::2] = evens
    out[1::2] = odds
    return out


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i], starts[i] + 1, …`` (``lengths[i]`` values each),
    concatenated — the repeat/offset trick, no Python-level loop."""
    out = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    out += np.arange(out.size, dtype=INT64)
    return out


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """Indices where a new key run begins in a sorted key vector."""
    mask = np.empty(keys.size, dtype=bool)
    mask[0] = True
    np.not_equal(keys[1:], keys[:-1], out=mask[1:])
    return np.flatnonzero(mask)


class NumpyKernels(KernelBackend):
    """Vectorized ``int64`` ndarray kernels (see module docstring)."""

    name = "numpy"

    # -- representation -------------------------------------------------
    def asarray(self, flat):
        if isinstance(flat, np.ndarray):
            if flat.dtype == INT64 and flat.ndim == 1:
                return flat
            return np.ascontiguousarray(flat, dtype=INT64).ravel()
        if isinstance(flat, array) and flat.typecode == "q":
            if not len(flat):
                return np.empty(0, dtype=INT64)
            # Zero-copy adoption via the buffer protocol; callers treat
            # kernel inputs as read-only, so aliasing is safe.
            return np.frombuffer(flat, dtype=INT64)
        return np.asarray(list(flat), dtype=INT64)

    def empty(self):
        return np.empty(0, dtype=INT64)

    def concat(self, chunks: Sequence):
        parts = [self.asarray(chunk) for chunk in chunks if len(chunk)]
        if not parts:
            return self.empty()
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    # -- sorting & the Figure-5 merge -----------------------------------
    def sort_pairs(self, flat, *, dedup: bool = True):
        a = self.asarray(flat)
        if a.size % 2:
            raise ValueError(
                f"pair array must have even length, got {a.size}"
            )
        if a.size == 0:
            return self.empty()
        evens = a[0::2]
        odds = a[1::2]
        packed_bases = _pack(evens, odds)
        if packed_bases is not None:
            packed, e_base, o_base = packed_bases
            packed.sort()
            if dedup and packed.size > 1:
                keep = np.empty(packed.size, dtype=bool)
                keep[0] = True
                np.not_equal(packed[1:], packed[:-1], out=keep[1:])
                if not keep.all():
                    packed = packed[keep]
            return _unpack(packed, e_base, o_base)
        order = np.lexsort((odds, evens))
        evens = evens[order]
        odds = odds[order]
        if dedup and evens.size > 1:
            keep = np.empty(evens.size, dtype=bool)
            keep[0] = True
            np.not_equal(evens[1:], evens[:-1], out=keep[1:])
            np.logical_or(keep[1:], odds[1:] != odds[:-1], out=keep[1:])
            if not keep.all():
                evens = evens[keep]
                odds = odds[keep]
        return _interleave(evens, odds)

    def merge_new(self, main, inferred) -> Tuple[np.ndarray, np.ndarray]:
        m = self.asarray(main)
        f = self.asarray(inferred)
        if f.size == 0:
            return m, self.empty()
        if m.size == 0:
            fresh = np.array(f, dtype=INT64)
            return fresh, np.array(f, dtype=INT64)
        if is_small_side(f, m):
            at, known = _locate(_rows(m), _rows(f))
            if known.all():
                return m, self.empty()
            fresh = ~known
            new = f.reshape(-1, 2)[fresh].ravel()
            return _insert_rows(m, at[fresh], new), new
        if is_small_side(m, f):
            at, known = _locate(_rows(f), _rows(m))
            new = delete_rows(f, at[known], 2) if known.any() else f
            fresh = ~known
            only_main = m.reshape(-1, 2)[fresh].ravel()
            return _insert_rows(f, at[fresh], only_main), new
        main_keys, inf_keys, e_base, o_base = _joint_keys(m, f)
        is_new = ~_locate(main_keys, inf_keys)[1]
        if not is_new.any():
            return m, self.empty()
        new_keys = inf_keys[is_new]
        # Stable timsort over two concatenated sorted runs is O(n + m).
        merged_keys = np.sort(
            np.concatenate([main_keys, new_keys]), kind="stable"
        )
        if merged_keys.dtype == np.uint64:
            return (
                _unpack(merged_keys, e_base, o_base),
                _unpack(new_keys, e_base, o_base),
            )
        merged = np.ascontiguousarray(merged_keys.view(INT64))
        new = np.ascontiguousarray(new_keys.view(INT64))
        return merged, new

    # -- views ----------------------------------------------------------
    def swap(self, flat):
        a = self.asarray(flat)
        return _interleave(a[1::2], a[0::2])

    def os_view(self, sorted_pairs):
        a = self.asarray(sorted_pairs)
        if a.size == 0:
            return self.empty()
        subjects = a[0::2]
        objects = a[1::2]
        packed_bases = _pack(objects, subjects)
        if packed_bases is not None:
            packed, o_base, s_base = packed_bases
            packed.sort()
            return _unpack(packed, o_base, s_base)
        order = np.lexsort((subjects, objects))
        return _interleave(objects[order], subjects[order])

    # -- join primitives ------------------------------------------------
    def merge_join(self, view1, view2, *, swap: bool = False):
        a = self.asarray(view1)
        b = self.asarray(view2)
        if a.size == 0 or b.size == 0:
            return self.empty()
        keys1 = a[0::2]
        rest1 = a[1::2]
        keys2 = b[0::2]
        rest2 = b[1::2]
        starts1 = _group_starts(keys1)
        starts2 = _group_starts(keys2)
        common, g1, g2 = np.intersect1d(
            keys1[starts1], keys2[starts2],
            assume_unique=True, return_indices=True,
        )
        if common.size == 0:
            return self.empty()
        counts1 = np.diff(np.append(starts1, keys1.size))[g1]
        counts2 = np.diff(np.append(starts2, keys2.size))[g2]
        sizes = counts1 * counts2
        total = int(sizes.sum())
        group = np.repeat(np.arange(common.size), sizes)
        within = np.arange(total, dtype=INT64) - np.repeat(
            np.cumsum(sizes) - sizes, sizes
        )
        left = rest1[starts1[g1][group] + within // counts2[group]]
        right = rest2[starts2[g2][group] + within % counts2[group]]
        if swap:
            return _interleave(right, left)
        return _interleave(left, right)

    def intersect(self, view1, view2):
        a = self.asarray(view1)
        b = self.asarray(view2)
        if a.size == 0 or b.size == 0:
            return self.empty()
        keys_a, keys_b, e_base, o_base = _joint_keys(a, b)
        found = _locate(keys_b, keys_a)[1]
        if keys_a.dtype == np.uint64:
            return _unpack(keys_a[found], e_base, o_base)
        return np.ascontiguousarray(keys_a[found].view(INT64))

    def difference(self, flat, other):
        a = self.asarray(flat)
        b = self.asarray(other)
        if a.size == 0 or b.size == 0:
            return a
        if is_small_side(b, a):
            at, found = _locate(_rows(a), _rows(b))
            return delete_rows(a, at[found], 2) if found.any() else a
        if is_small_side(a, b):
            _, found = _locate(_rows(b), _rows(a))
            return a.reshape(-1, 2)[~found].ravel() if found.any() else a
        keys_a, keys_b, _, _ = _joint_keys(a, b)
        # Both sides unique: isin's one merge-sort beats a binary search
        # per row, and compress beats a boolean index on 2-D rows.
        absent = np.isin(keys_a, keys_b, assume_unique=True, invert=True)
        return np.compress(absent, a.reshape(-1, 2), axis=0).ravel()

    def consecutive_in_group(self, view):
        a = self.asarray(view)
        keys = a[0::2]
        values = a[1::2]
        if keys.size < 2:
            return self.empty()
        mask = (keys[1:] == keys[:-1]) & (values[1:] != values[:-1])
        return _interleave(values[:-1][mask], values[1:][mask])

    # -- scans & lookups ------------------------------------------------
    def distinct_evens(self, sorted_flat) -> Sequence[int]:
        a = self.asarray(sorted_flat)
        if a.size == 0:
            return np.empty(0, dtype=INT64)
        keys = a[0::2]
        return keys[_group_starts(keys)]

    def pair_with_constant(
        self, values: Iterable[int], constant: int, *, constant_as_object: bool = True
    ):
        vals = (
            values
            if isinstance(values, np.ndarray)
            else np.asarray(list(values), dtype=INT64)
        )
        if vals.size == 0:
            return self.empty()
        const = np.full(vals.size, constant, dtype=INT64)
        if constant_as_object:
            return _interleave(vals, const)
        return _interleave(const, vals)

    def key_slice(self, sorted_flat, key: int) -> Tuple[int, int]:
        evens = self.asarray(sorted_flat)[0::2]
        # The ndarray method, not np.searchsorted: a lookup is a few
        # microseconds and the module-level wrapper is a third of it.
        return (
            int(evens.searchsorted(key, "left")),
            int(evens.searchsorted(key, "right")),
        )

    def key_lower_bound(self, sorted_flat, key: int) -> int:
        a = self.asarray(sorted_flat)
        return int(np.searchsorted(a[0::2], key, side="left"))

    def select_in_ranges(self, sorted_values, ranges) -> Sequence[int]:
        values = (
            sorted_values
            if isinstance(sorted_values, np.ndarray)
            else np.asarray(list(sorted_values), dtype=INT64)
        )
        if values.size == 0:
            return values
        bounds = list(ranges)
        if not bounds:
            return values[:0]
        lows = np.asarray([low for low, _ in bounds], dtype=INT64)
        highs = np.asarray([high for _, high in bounds], dtype=INT64)
        starts = np.searchsorted(values, lows, side="left")
        ends = np.searchsorted(values, highs, side="right")
        chunks = [values[s:e] for s, e in zip(starts, ends) if e > s]
        if not chunks:
            return values[:0]
        return np.concatenate(chunks)

    # -- columns --------------------------------------------------------
    def index_by_key(self, column):
        keys = np.asarray(column, dtype=INT64)
        order = np.argsort(keys, kind="stable")
        return _interleave(keys[order], order)

    def interleave(self, evens, odds):
        return _interleave(
            np.asarray(evens, dtype=INT64), np.asarray(odds, dtype=INT64)
        )

    def take(self, column, indices):
        return np.asarray(column, dtype=INT64)[indices]

    def where_equal(self, column1, column2):
        return np.flatnonzero(np.equal(column1, column2))

    def where_present(self, sorted_flat, evens, odds):
        a = self.asarray(sorted_flat)
        keys = np.asarray(evens, dtype=INT64)
        values = np.asarray(odds, dtype=INT64)
        if not a.size or not keys.size:
            return np.empty(0, dtype=INT64)
        # Each row's run of equal even components: two binary searches
        # on the strided even half (a view, not a copy).
        low = a[0::2].searchsorted(keys, "left")
        high = a[0::2].searchsorted(keys, "right")
        if keys.size == 1:
            # One row: a third binary search, in its run's odd half.
            at = low[0] + a[1::2][low[0]:high[0]].searchsorted(values[0])
            found = at < high[0] and a[2 * at + 1] == values[0]
            return np.arange(int(found), dtype=INT64)
        runs = high - low
        if runs.sum() > SCAN_RUN_ROWS * keys.size:
            # Long runs: one binary search per row over structured
            # rows, exact over the whole int64 range.
            needles = _interleave(keys, values)
            return np.flatnonzero(_locate(_rows(a), _rows(needles))[1])
        # Short runs: compare the odd component of every row of each.
        hit = a[1::2][ranges(low, runs)] == np.repeat(values, runs)
        return np.repeat(np.arange(keys.size), runs)[hit]

    def repeat(self, values, counts):
        return np.repeat(np.asarray(values, dtype=INT64), counts)

    # -- closure emission -------------------------------------------------
    def cross_intervals(
        self,
        member_lows,
        member_counts,
        interval_counts,
        interval_lows,
        interval_highs,
        relabel,
    ):
        # One *segment* per (member, reach interval), member-major: a run
        # of output pairs with one source and consecutive targets.  Every
        # column is segment-sized except the output and the transient
        # one-half columns written into it.
        lows = np.asarray(interval_lows, dtype=INT64)
        widths = np.asarray(interval_highs, dtype=INT64) - lows + 1
        n_intervals = np.asarray(interval_counts, dtype=INT64)
        counts = np.asarray(member_counts, dtype=INT64)
        relabel = np.asarray(relabel, dtype=INT64)
        members = ranges(np.asarray(member_lows, dtype=INT64), counts)
        member_intervals = np.repeat(n_intervals, counts)
        segments = ranges(
            np.repeat(np.cumsum(n_intervals) - n_intervals, counts),
            member_intervals,
        )
        segment_widths = widths[segments]
        out = np.empty(2 * int(segment_widths.sum()), dtype=INT64)
        out[0::2] = np.repeat(
            relabel[np.repeat(members, member_intervals)], segment_widths
        )
        out[1::2] = relabel[ranges(lows[segments], segment_widths)]
        return out


#: Shared stateless instance.
NUMPY_KERNELS = NumpyKernels()
