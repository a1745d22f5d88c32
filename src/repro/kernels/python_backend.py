"""Pure-Python kernel backend: the reference implementation.

This is the seed implementation of every hot-path primitive, relocated
behind :class:`repro.kernels.base.KernelBackend` — interpreted loops
over ``array('q')``.  Its one pair sort is CPython's timsort over
⟨s, o⟩ rows packed into one int each: on every engine workload
measured it beat the paper's counting / MSD-radix operating-range
dispatch, which lives on in ``benchmarks/paper/sorting`` for the
Table-1 comparison only.  It is always available and serves as the
ground truth the vectorized backends are differentially tested
against.  Like the numpy kernels, ``merge_new`` and ``difference``
binary-search a side at most 1/``SMALL_SIDE_RATIO`` of the other and
splice the result from slices of the large side, instead of walking it
pair by pair.
"""

from __future__ import annotations

from array import array
from itertools import groupby, repeat
from operator import add, and_, itemgetter, lshift, rshift, sub
from typing import Iterable, Sequence, Tuple

from .base import KernelBackend, is_small_side

PairArray = array


def _sorted_rows(flat, major: int, dedup: bool) -> PairArray:
    """Flat ⟨flat[major::2], flat[1 - major::2]⟩ rows in lexicographic
    order.

    Timsort over one int key per row, ``(major - low) << width | (minor
    - low)``: an int is a third of a row tuple's memory and compares
    faster, and committed tables and rule output arrive as presorted
    runs, which timsort merges in near-linear time.
    """
    if not len(flat):
        return array("q")
    majors = flat[major::2]
    minors = flat[1 - major::2]
    major_low = min(majors)
    minor_low = min(minors)
    width = (max(minors) - minor_low).bit_length()
    keys = sorted(map(
        add,
        map(lshift, map(sub, majors, repeat(major_low)), repeat(width)),
        map(sub, minors, repeat(minor_low)),
    ))
    del majors, minors  # free the column copies before decoding
    if dedup:
        keys = list(map(itemgetter(0), groupby(keys)))
    out = array("q", bytes(16 * len(keys)))
    out[0::2] = array(
        "q", map(add, map(rshift, keys, repeat(width)), repeat(major_low))
    )
    out[1::2] = array(
        "q",
        map(add, map(and_, keys, repeat((1 << width) - 1)), repeat(minor_low)),
    )
    return out


def _locate(flat, rows):
    """Per pair of the sorted ``rows``: the index of the first pair of the
    sorted ``flat`` not below it, and whether that pair is it — one
    binary search each, starting where the previous one ended."""
    spots = []
    low, n_pairs = 0, len(flat) // 2
    for j in range(0, len(rows), 2):
        key = (rows[j], rows[j + 1])
        high = n_pairs
        while low < high:
            mid = (low + high) // 2
            if (flat[2 * mid], flat[2 * mid + 1]) < key:
                low = mid + 1
            else:
                high = mid
        spots.append((low, low < n_pairs and
                      (flat[2 * low], flat[2 * low + 1]) == key))
    return spots


def _splice(flat, cuts):
    """``flat`` rebuilt from slices: per ``(at, rows)`` of ``cuts``
    (ascending ``at``), the pairs up to pair ``at``, then ``rows`` (a
    flat run to insert), or with ``rows`` None pair ``at`` skipped."""
    out = array("q")
    start = 0
    for at, rows in cuts:
        out += flat[2 * start: 2 * at]
        if rows is None:
            start = at + 1
        else:
            out += rows
            start = at
    out += flat[2 * start:]
    return out


class PythonKernels(KernelBackend):
    """Interpreted ``array('q')`` kernels (see module docstring)."""

    name = "python"

    # -- representation -------------------------------------------------
    def asarray(self, flat):
        if isinstance(flat, array) and flat.typecode == "q":
            return flat
        out = array("q")
        try:  # a contiguous int64 buffer (an ndarray): one copy, no boxing
            view = memoryview(flat)
            if view.itemsize == 8 and view.format in ("q", "l"):
                out.frombytes(view.cast("B"))
                return out
        except TypeError:  # not a buffer, or a strided one
            pass
        return array("q", flat)

    def empty(self):
        return array("q")

    def concat(self, chunks: Sequence):
        if len(chunks) == 1:
            return self.asarray(chunks[0])
        out = array("q")
        for chunk in chunks:
            if isinstance(chunk, array) and chunk.typecode == "q":
                out.extend(chunk)
            else:
                out.extend(self.asarray(chunk))
        return out

    # -- sorting & the Figure-5 merge -----------------------------------
    def sort_pairs(self, flat, *, dedup: bool = True):
        flat = self.asarray(flat)
        if len(flat) % 2:
            raise ValueError(f"pair array must have even length, got {len(flat)}")
        return _sorted_rows(flat, 0, dedup)

    def merge_new(self, main, inferred) -> Tuple[PairArray, PairArray]:
        main = self.asarray(main)
        inferred = self.asarray(inferred)
        if not len(inferred):
            return main, array("q")
        if not len(main):
            fresh = array("q", inferred)
            return fresh, array("q", inferred)
        if is_small_side(inferred, main):
            new = array("q")
            cuts = []
            for j, (at, found) in enumerate(_locate(main, inferred)):
                if not found:
                    row = inferred[2 * j: 2 * j + 2]
                    new += row
                    cuts.append((at, row))
            return (_splice(main, cuts) if cuts else main), new
        if is_small_side(main, inferred):
            spots = _locate(inferred, main)
            new = _splice(
                inferred, [(at, None) for at, found in spots if found]
            )
            return _splice(inferred, [
                (at, main[2 * j: 2 * j + 2])
                for j, (at, found) in enumerate(spots) if not found
            ]), new

        merged = array("q")
        new = array("q")
        i = 0
        j = 0
        len_main = len(main)
        len_inf = len(inferred)
        while i < len_main and j < len_inf:
            main_key = (main[i], main[i + 1])
            inf_key = (inferred[j], inferred[j + 1])
            if main_key < inf_key:
                merged.append(main_key[0])
                merged.append(main_key[1])
                i += 2
            elif main_key > inf_key:
                merged.append(inf_key[0])
                merged.append(inf_key[1])
                new.append(inf_key[0])
                new.append(inf_key[1])
                j += 2
            else:  # duplicate: keep once, not new
                merged.append(main_key[0])
                merged.append(main_key[1])
                i += 2
                j += 2
        if i < len_main:
            merged.extend(main[i:])
        if j < len_inf:
            merged.extend(inferred[j:])
            new.extend(inferred[j:])
        return merged, new

    # -- views ----------------------------------------------------------
    def swap(self, flat):
        flat = self.asarray(flat)
        swapped = array("q", bytes(8 * len(flat)))
        swapped[0::2] = flat[1::2]
        swapped[1::2] = flat[0::2]
        return swapped

    def os_view(self, sorted_pairs):
        return _sorted_rows(sorted_pairs, 1, False)

    # -- join primitives ------------------------------------------------
    def merge_join(self, view1, view2, *, swap: bool = False):
        out = array("q")
        i = j = 0
        n1 = len(view1)
        n2 = len(view2)
        append = out.append
        while i < n1 and j < n2:
            key1 = view1[i]
            key2 = view2[j]
            if key1 < key2:
                i += 2
            elif key1 > key2:
                j += 2
            else:
                i_end = i
                while i_end < n1 and view1[i_end] == key1:
                    i_end += 2
                j_end = j
                while j_end < n2 and view2[j_end] == key1:
                    j_end += 2
                rest2 = [view2[x] for x in range(j + 1, j_end, 2)]
                if swap:
                    for x in range(i + 1, i_end, 2):
                        rest1 = view1[x]
                        for r2 in rest2:
                            append(r2)
                            append(rest1)
                else:
                    for x in range(i + 1, i_end, 2):
                        rest1 = view1[x]
                        for r2 in rest2:
                            append(rest1)
                            append(r2)
                i = i_end
                j = j_end
        return out

    def intersect(self, view1, view2):
        out = array("q")
        i = j = 0
        n1 = len(view1)
        n2 = len(view2)
        while i < n1 and j < n2:
            key1 = (view1[i], view1[i + 1])
            key2 = (view2[j], view2[j + 1])
            if key1 < key2:
                i += 2
            elif key1 > key2:
                j += 2
            else:
                out.append(key1[0])
                out.append(key1[1])
                i += 2
                j += 2
        return out

    def difference(self, flat, other):
        if len(other) and is_small_side(other, flat):
            return _splice(flat, [
                (at, None) for at, found in _locate(flat, other) if found
            ])
        if len(flat) and is_small_side(flat, other):
            out = array("q")
            for j, (_, found) in enumerate(_locate(other, flat)):
                if not found:
                    out += flat[2 * j: 2 * j + 2]
            return out
        out = array("q")
        i = j = 0
        n1 = len(flat)
        n2 = len(other)
        while i < n1:
            key1 = (flat[i], flat[i + 1])
            while j < n2 and (other[j], other[j + 1]) < key1:
                j += 2
            if j >= n2 or (other[j], other[j + 1]) != key1:
                out.append(key1[0])
                out.append(key1[1])
            i += 2
        return out

    def consecutive_in_group(self, view):
        out = array("q")
        i = 0
        n = len(view)
        while i < n:
            key = view[i]
            previous = None
            j = i
            while j < n and view[j] == key:
                value = view[j + 1]
                if previous is not None and value != previous:
                    out.append(previous)
                    out.append(value)
                previous = value
                j += 2
            i = j
        return out

    # -- scans & lookups ------------------------------------------------
    def distinct_evens(self, sorted_flat) -> Sequence[int]:
        out = []
        previous = None
        for i in range(0, len(sorted_flat), 2):
            key = sorted_flat[i]
            if key != previous:
                out.append(key)
                previous = key
        return out

    def pair_with_constant(
        self, values: Iterable[int], constant: int, *, constant_as_object: bool = True
    ):
        out = array("q")
        append = out.append
        if constant_as_object:
            for value in values:
                append(value)
                append(constant)
        else:
            for value in values:
                append(constant)
                append(value)
        return out

    def key_slice(self, sorted_flat, key: int) -> Tuple[int, int]:
        n_pairs = len(sorted_flat) // 2
        # Lower bound.
        low, high = 0, n_pairs
        while low < high:
            mid = (low + high) // 2
            if sorted_flat[2 * mid] < key:
                low = mid + 1
            else:
                high = mid
        start = low
        # Upper bound.
        high = n_pairs
        while low < high:
            mid = (low + high) // 2
            if sorted_flat[2 * mid] <= key:
                low = mid + 1
            else:
                high = mid
        return start, low


#: Shared stateless instance (kernels hold no per-table state).
PYTHON_KERNELS = PythonKernels()
