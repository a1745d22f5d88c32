"""Property tables: the vertical-partitioning storage unit (paper §4.2).

One :class:`PropertyTable` holds every ⟨subject, object⟩ pair of a single
property as a flat dynamic array of 64-bit integers (even index =
subject, odd index = object), kept **sorted on ⟨s, o⟩ and duplicate-free**
between iterations.  A second array sorted on ⟨o, s⟩ is computed lazily
when a rule needs an object-keyed merge join, cached, and invalidated
whenever new pairs are merged in (paper: "The cached ⟨o,s⟩ sorted index
is computed lazily upon need").

The Figure-5 update step lives here as :meth:`PropertyTable.merge`: the
already sorted+deduplicated inferred pairs are merged with the main
pairs in one linear pass that simultaneously produces the updated main
table and the ``new`` table (inferred pairs that were not already known).

Every pass over the pair data — commit sort, the Figure-5 merge, the
⟨o, s⟩ view — executes on a pluggable :class:`repro.kernels.KernelBackend`
(pure-Python reference loops or vectorized NumPy), so the table's flat
array is whatever type the backend works on natively.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Tuple, Union

from ..kernels import KernelBackend, resolve_backend

PairArray = array


class PropertyTable:
    """Sorted, duplicate-free ⟨s, o⟩ pairs of one property.

    Parameters
    ----------
    pairs:
        Optional initial flat pair data (need not be sorted; it is
        committed through the backend's sort kernel).
    backend:
        Kernel backend name ('auto', 'python', 'numpy', 'compressed')
        or a :class:`~repro.kernels.KernelBackend` instance.
    presorted:
        The initial ``pairs`` are already sorted-unique in the
        backend's native representation; skip the commit sort (used for
        delta tables built from Figure-5 merge output).
    """

    __slots__ = ("_pairs", "_os_cache", "_kernels")

    def __init__(
        self,
        pairs: Optional[Union[PairArray, List[int]]] = None,
        *,
        backend: Union[str, KernelBackend] = "auto",
        presorted: bool = False,
    ):
        self._kernels = resolve_backend(backend)
        self._os_cache = None
        if pairs is None or not len(pairs):
            self._pairs = self._kernels.empty()
        elif presorted:
            self._pairs = self._kernels.asarray(pairs)
        else:
            self._pairs = self._kernels.sort_pairs(pairs, dedup=True)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def pairs(self):
        """The committed flat ⟨s, o⟩ array (do not mutate)."""
        return self._pairs

    @property
    def n_pairs(self) -> int:
        """Number of ⟨s, o⟩ pairs stored."""
        return len(self._pairs) // 2

    def __bool__(self) -> bool:
        return len(self._pairs) > 0

    def os_pairs(self):
        """The ⟨o, s⟩-sorted view (object at even indices), lazily cached.

        The view is a *permutation* of the table with components swapped
        — the paper stores it as a cached second array that may be
        dropped under memory pressure.
        """
        if self._os_cache is None:
            self._os_cache = self._kernels.os_view(self._pairs)
        return self._os_cache

    @property
    def has_os_cache(self) -> bool:
        """Whether the ⟨o, s⟩ view is currently materialised."""
        return self._os_cache is not None

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def contains(self, subject: int, obj: int) -> bool:
        """Binary search for one ⟨s, o⟩ pair."""
        pairs = self._pairs
        low = 0
        high = len(pairs) // 2 - 1
        while low <= high:
            mid = (low + high) // 2
            mid_s = pairs[2 * mid]
            mid_o = pairs[2 * mid + 1]
            if (mid_s, mid_o) < (subject, obj):
                low = mid + 1
            elif (mid_s, mid_o) > (subject, obj):
                high = mid - 1
            else:
                return True
        return False

    def columns(self, key: Optional[int] = None, *, by_object: bool = False):
        """Rows of this table as a decoded flat pair array — the column
        accessor of the BGP evaluator.

        In ⟨s, o⟩ order, or ⟨o, s⟩ (objects at even indices, from the
        lazily cached view) with ``by_object``.  ``key`` keeps only the
        rows whose first component equals it: a binary-searched slice
        whose length is that lookup's exact cardinality.  The result
        takes strided slices on every backend (``[0::2]`` / ``[1::2]``
        are the two id columns) and must not be mutated.
        """
        view = self.os_pairs() if by_object else self._pairs
        if key is None:
            return self._kernels.concat([view])
        start, end = self._kernels.key_slice(view, key)
        return view[2 * start: 2 * end]

    def objects_of(self, subject: int) -> List[int]:
        """All objects paired with ``subject`` (sorted)."""
        return self.columns(subject)[1::2].tolist()

    def subjects_of(self, obj: int) -> List[int]:
        """All subjects paired with ``obj`` (sorted; uses the o-s view)."""
        return self.columns(obj, by_object=True)[1::2].tolist()

    def iter_pairs(self) -> Iterator[Tuple[int, int]]:
        """Iterate ⟨s, o⟩ tuples in sorted order."""
        # tolist() exists on both array('q') and ndarray and converts
        # to plain ints in one pass — much faster than element access.
        flat = self._pairs.tolist()
        return zip(flat[0::2], flat[1::2])

    # ------------------------------------------------------------------
    # Figure-5 update
    # ------------------------------------------------------------------
    def merge(self, inferred_sorted):
        """Merge sorted+deduplicated inferred pairs; return the new ones.

        One linear pass implements both steps of Figure 5: ``main`` is
        replaced by ``main ∪ inferred`` (still sorted-unique) and the
        returned array holds exactly ``inferred ∖ main`` — the pairs
        that feed the next iteration.  The ⟨o, s⟩ cache is invalidated
        when anything new arrived.
        """
        if not len(inferred_sorted):
            return self._kernels.empty()
        merged, new = self._kernels.merge_new(self._pairs, inferred_sorted)
        self._pairs = merged
        if len(new):
            # The cached ⟨o, s⟩ permutation no longer covers the table.
            self._os_cache = None
        return new

    def memory_bytes(self, seen: Optional[set] = None) -> int:
        """Bytes held by the pair array (+ the o-s cache if present).

        Backend-aware: the flat backends report the exact fixed-length
        encoding (16 bytes per pair per array — the figure the paper's
        scalability discussion is about), the compressed backend its
        encoded block bytes.  ``seen`` deduplicates storage shared with
        other tables/versions by identity (snapshot aliasing, shared
        compressed runs); pass one set across a whole store walk.
        """
        total = self._kernels.flat_nbytes(self._pairs, seen)
        if self._os_cache is not None:
            total += self._kernels.flat_nbytes(self._os_cache, seen)
        return total
