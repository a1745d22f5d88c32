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


def pairs_as_tuples(flat) -> List[Tuple[int, int]]:
    """Debug/test helper: flat layout → list of (first, second) tuples."""
    return list(zip(flat[0::2], flat[1::2]))


class PropertyTable:
    """Sorted, duplicate-free ⟨s, o⟩ pairs of one property.

    Parameters
    ----------
    pairs:
        Optional initial flat pair data (need not be sorted; it is
        committed through the backend's sort kernel).
    tracer:
        Optional :class:`repro.memsim.tracer.Tracer`; when set, the
        table reports its sequential scans and writes so the memory
        simulator can replay them (see DESIGN.md, Figures 7–8).
    backend:
        Kernel backend name ('auto', 'python', 'numpy') or a
        :class:`~repro.kernels.KernelBackend` instance.
    presorted:
        The initial ``pairs`` are already sorted-unique in the
        backend's native representation; skip the commit sort (used for
        delta tables built from Figure-5 merge output).
    """

    __slots__ = (
        "_pairs",
        "_os_cache",
        "_kernels",
        "tracer",
        "_trace_id",
        "cache_os",
    )

    def __init__(
        self,
        pairs: Optional[Union[PairArray, List[int]]] = None,
        *,
        tracer=None,
        trace_id: int = 0,
        cache_os: bool = True,
        backend: Union[str, KernelBackend] = "auto",
        presorted: bool = False,
    ):
        self._kernels = resolve_backend(backend)
        self.tracer = tracer
        self._trace_id = trace_id
        self.cache_os = cache_os
        self._os_cache = None
        if pairs is None or not len(pairs):
            self._pairs = self._kernels.empty()
        elif presorted:
            self._pairs = self._kernels.asarray(pairs)
        else:
            self._pairs = self._kernels.sort_pairs(pairs, dedup=True)
            self._trace_sort(len(self._pairs) // 2)

    @property
    def kernels(self) -> KernelBackend:
        """The kernel backend this table executes on."""
        return self._kernels

    # ------------------------------------------------------------------
    # Tracing (one call per table-level operation; memsim expands these
    # into element-level address streams)
    # ------------------------------------------------------------------
    def _trace_sort(self, n_pairs: int) -> None:
        if self.tracer is not None and n_pairs:
            self.tracer.sequential_scan(("table", self._trace_id), n_pairs * 16)

    def _trace_scan(self, n_pairs: int) -> None:
        if self.tracer is not None and n_pairs:
            self.tracer.sequential_scan(("table", self._trace_id), n_pairs * 16)

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

    def __len__(self) -> int:
        return self.n_pairs

    def __bool__(self) -> bool:
        return len(self._pairs) > 0

    def os_pairs(self):
        """The ⟨o, s⟩-sorted view (object at even indices), lazily cached.

        The view is a *permutation* of the table with components swapped
        — the paper stores it as a cached second array that may be
        dropped under memory pressure (:meth:`drop_os_cache`).  With
        ``cache_os=False`` (the ablation configuration) the view is
        recomputed on every call.
        """
        if self._os_cache is not None:
            return self._os_cache
        view = self._kernels.os_view(self._pairs)
        self._trace_sort(self.n_pairs)
        if self.cache_os:
            self._os_cache = view
        return view

    @property
    def has_os_cache(self) -> bool:
        """Whether the ⟨o, s⟩ view is currently materialised."""
        return self._os_cache is not None

    def drop_os_cache(self) -> None:
        """Release the cached ⟨o, s⟩ view (memory-pressure valve)."""
        self._os_cache = None

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

    def subject_slice(self, subject: int) -> Tuple[int, int]:
        """Pair-index range [start, end) of rows with this subject."""
        return self._kernels.key_slice(self._pairs, subject)

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

    def distinct_subjects(self) -> List[int]:
        """Sorted distinct subjects."""
        return list(self._kernels.distinct_evens(self._pairs))

    def distinct_objects(self) -> List[int]:
        """Sorted distinct objects (uses the o-s view)."""
        return list(self._kernels.distinct_evens(self.os_pairs()))

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
        self._trace_scan((len(self._pairs) + len(inferred_sorted)) // 2)
        self._pairs = merged
        if len(new):
            # The cached ⟨o, s⟩ permutation no longer covers the table.
            self._os_cache = None
        return new

    def as_set(self) -> set:
        """Snapshot of the pairs as a set of tuples (tests)."""
        return set(self.iter_pairs())

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
