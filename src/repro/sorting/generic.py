"""Generic sorting baselines for the Table-1 comparison.

The paper compares its ad-hoc sorts against generic 128-bit sorting
algorithms (SIMD radix / merge from Satish et al., plus mergesort and
quicksort).  SIMD implementations are out of reach here, so the
comparison set is:

* ``mergesort_pairs`` / ``quicksort_pairs`` — textbook pure-Python
  implementations, the same substrate as the contribution sorts (this is
  the apples-to-apples comparison that preserves Table 1's shape);
* ``numpy_sort_pairs`` — NumPy's C quicksort/mergesort on packed 64-bit
  keys, an accelerated reference (optional dependency).

The Table-1 benchmark adds a second accelerated reference row, the
pure-Python kernel backend's pair sort (CPython's C-compiled timsort),
playing the role the paper gives the SIMD numbers quoted from [25].
"""

from __future__ import annotations

from array import array
from typing import List, Tuple, Union

from .counting import _check_pairs

PairArray = array

_INSERTION_CUTOFF = 16


def _pairs_to_items(
    pairs: Union[PairArray, List[int]],
) -> List[Tuple[int, int]]:
    return list(zip(pairs[0::2], pairs[1::2]))


def _items_to_pairs(items: List[Tuple[int, int]]) -> PairArray:
    flat = array("q", bytes(16 * len(items)))
    write = 0
    for subject, obj in items:
        flat[write] = subject
        flat[write + 1] = obj
        write += 2
    return flat


def _merge(
    left: List[Tuple[int, int]], right: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    out: List[Tuple[int, int]] = []
    i = j = 0
    len_left = len(left)
    len_right = len(right)
    while i < len_left and j < len_right:
        if left[i] <= right[j]:
            out.append(left[i])
            i += 1
        else:
            out.append(right[j])
            j += 1
    if i < len_left:
        out.extend(left[i:])
    else:
        out.extend(right[j:])
    return out


def _mergesort(items: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    if len(items) <= _INSERTION_CUTOFF:
        return sorted(items)
    mid = len(items) // 2
    return _merge(_mergesort(items[:mid]), _mergesort(items[mid:]))


def mergesort_pairs(pairs: Union[PairArray, List[int]]) -> PairArray:
    """Textbook top-down mergesort over (s, o) tuples."""
    _check_pairs(pairs)
    return _items_to_pairs(_mergesort(_pairs_to_items(pairs)))


def _quicksort(items: List[Tuple[int, int]], low: int, high: int) -> None:
    """In-place median-of-three quicksort with small-range insertion."""
    while high - low > _INSERTION_CUTOFF:
        mid = (low + high) // 2
        a, b, c = items[low], items[mid], items[high - 1]
        if a > b:
            a, b = b, a
        if b > c:
            b, c = c, b
            if a > b:
                a, b = b, a
        pivot = b
        i = low
        j = high - 1
        while True:
            while items[i] < pivot:
                i += 1
            while items[j] > pivot:
                j -= 1
            if i >= j:
                break
            items[i], items[j] = items[j], items[i]
            i += 1
            j -= 1
        # Recurse on the smaller side, iterate on the larger.
        if j + 1 - low < high - (j + 1):
            _quicksort(items, low, j + 1)
            low = j + 1
        else:
            _quicksort(items, j + 1, high)
            high = j + 1
    if high - low > 1:
        items[low:high] = sorted(items[low:high])


def quicksort_pairs(pairs: Union[PairArray, List[int]]) -> PairArray:
    """Textbook in-place quicksort over (s, o) tuples."""
    _check_pairs(pairs)
    items = _pairs_to_items(pairs)
    _quicksort(items, 0, len(items))
    return _items_to_pairs(items)


def numpy_sort_pairs(
    pairs: Union[PairArray, List[int]],
    *,
    kind: str = "quicksort",
) -> PairArray:
    """NumPy C-speed sort on packed 64-bit keys (accelerated reference).

    Subjects and objects are offset by their minima so each fits in 32
    bits (guaranteed by the dense numbering for realistic tables), packed
    as ``(s' << 32) | o'`` and sorted with the requested NumPy kind.

    Raises
    ------
    ImportError
        If NumPy is unavailable.
    ValueError
        If the offset values do not fit in 32 bits.
    """
    import numpy as np

    n_pairs = _check_pairs(pairs)
    if n_pairs == 0:
        return array("q")
    flat = np.asarray(pairs, dtype=np.int64)
    subjects = flat[0::2]
    objects = flat[1::2]
    min_s = int(subjects.min())
    min_o = int(objects.min())
    s_rel = (subjects - min_s).astype(np.uint64)
    o_rel = (objects - min_o).astype(np.uint64)
    if int(s_rel.max()) >= (1 << 32) or int(o_rel.max()) >= (1 << 32):
        raise ValueError("pair values exceed the packable 32-bit window")
    packed = (s_rel << np.uint64(32)) | o_rel
    packed.sort(kind=kind)
    out = np.empty(2 * n_pairs, dtype=np.int64)
    out[0::2] = (packed >> np.uint64(32)).astype(np.int64) + min_s
    out[1::2] = (packed & np.uint64(0xFFFFFFFF)).astype(np.int64) + min_o
    return array("q", out.tolist())
