"""Kernel backend interface: the pair-array hot-path primitives.

Every cache-friendly pass Inferray makes over the vertical store —
sort+dedup commits (Algorithm 2 / §5), the Figure-5 merge, the lazily
cached ⟨o, s⟩ views and the sort-merge joins of rule execution (§4.4) —
is a small set of operations over flat 64-bit pair arrays (even index =
key, odd index = companion).  A :class:`KernelBackend` bundles one
implementation of those operations, so the store and the rule executors
are written once against this interface and the execution substrate is
swappable:

* ``numpy`` — vectorized kernels over ``int64`` ndarrays
  (:mod:`repro.kernels.numpy_backend`), what ``'auto'`` selects; the
  flat-int encoding of the dictionary makes the pair arrays drop-in
  compatible with NumPy vectors, so every pass runs at C speed.
* ``python`` — the reference implementation, interpreted loops over
  ``array('q')`` (see :mod:`repro.kernels.python_backend`); selected
  only by name, and the oracle the differential suites compare to.
* ``compressed`` — delta-encoded sorted runs
  (:mod:`repro.kernels.compressed_backend`) over the NumPy kernels;
  committed columns live as frame-of-reference zig-zag delta blocks,
  every primitive streams block-by-block, and identical blocks are
  shared across versions and snapshots.  Trades decode time for a
  ~4–8× smaller resident closure.

Backends are semantically interchangeable: for any input, every kernel
must return the same *values* regardless of backend (the differential
suite under ``tests/kernels/`` enforces this).  The concrete flat-array
type differs (``array('q')`` vs ``numpy.ndarray``); both support
``len``, indexing, slicing and iteration, which is all the generic store
code relies on.

All inputs marked *sorted* mean sorted lexicographically on
(even, odd) components; *sorted-unique* additionally means free of
duplicate pairs.  Kernels never mutate their inputs.
"""

from __future__ import annotations

from array import array
from typing import Iterable, Sequence, Tuple

#: A delta at most 1/SMALL_SIDE_RATIO the size of the table it meets is
#: *small*: the numpy and python kernels locate its rows by binary
#: search instead of a pass over the table (``merge_new`` /
#: ``difference``), and a property table folds it into its cached
#: ⟨o, s⟩ view instead of dropping the view.  Set by a sweep of 8–128
#: over tables of 4 k–500 k pairs (CHANGES.md).
SMALL_SIDE_RATIO = 64


def is_small_side(small, large) -> bool:
    """Whether flat ``small`` is at most 1/SMALL_SIDE_RATIO of ``large``."""
    return len(small) * SMALL_SIDE_RATIO <= len(large)


class KernelBackend:
    """Abstract pair-array kernel bundle (see module docstring)."""

    #: Backend identifier ('python', 'numpy'); shown by the CLI and the
    #: benchmark reports.
    name: str = "abstract"

    # -- representation -------------------------------------------------
    def asarray(self, flat):
        """Coerce a flat pair sequence to this backend's native type.

        Zero-copy when the input already is native; the result must be
        treated as read-only (it may alias the input).
        """
        raise NotImplementedError

    def empty(self):
        """A new empty native flat array."""
        raise NotImplementedError

    def concat(self, chunks: Sequence) -> object:
        """Concatenate flat chunks (possibly of foreign types) natively."""
        raise NotImplementedError

    def flat_nbytes(self, flat, seen=None) -> int:
        """Resident bytes held by a flat array.

        The memory-accounting hook behind ``PropertyTable.memory_bytes``
        and the memsim live-Store probe.  ``seen`` (a mutable set, when
        provided) deduplicates storage shared across versions/snapshots
        by object identity: an array (or, for the compressed backend, an
        encoded block) already accounted for contributes zero.
        """
        if seen is not None:
            key = id(flat)
            if key in seen:
                return 0
            seen.add(key)
        return 8 * len(flat)

    # -- sorting & the Figure-5 merge -----------------------------------
    def sort_pairs(self, flat, *, dedup: bool = True):
        """Sort a flat pair array on (even, odd); optionally deduplicate."""
        raise NotImplementedError

    def merge_new(self, main, inferred) -> Tuple[object, object]:
        """Figure-5 update: returns ``(main ∪ inferred, inferred ∖ main)``.

        Both inputs are sorted-unique; both outputs are sorted-unique.
        The first return value replaces the main table, the second is
        the genuinely-new delta that seeds the next iteration.
        """
        raise NotImplementedError

    # -- views ----------------------------------------------------------
    def swap(self, flat):
        """Swap even/odd components of every pair (no re-sort)."""
        raise NotImplementedError

    def os_view(self, sorted_pairs):
        """The ⟨o, s⟩ permutation of a sorted ⟨s, o⟩ array, re-sorted."""
        raise NotImplementedError

    # -- join primitives (§4.4) -----------------------------------------
    def merge_join(self, view1, view2, *, swap: bool = False):
        """Sort-merge join keyed on the even components of both views.

        For every key present in both views, emits the cross product of
        the odd-position companions as flat ⟨rest1, rest2⟩ pairs
        (⟨rest2, rest1⟩ when ``swap``).  Inputs sorted on their even
        component.
        """
        raise NotImplementedError

    def intersect(self, view1, view2):
        """Pairs present in both sorted views, in view1 order."""
        raise NotImplementedError

    def difference(self, flat, other):
        """Pairs of sorted-unique ``flat`` absent from sorted-unique
        ``other``, in order (a self-fed rule's delta without its own
        last output)."""
        raise NotImplementedError

    def consecutive_in_group(self, view):
        """⟨vᵢ₋₁, vᵢ⟩ for consecutive differing values within each
        equal-key run of a sorted view (the PRP-FP/IFP conflict scan)."""
        raise NotImplementedError

    # -- scans & lookups ------------------------------------------------
    def distinct_evens(self, sorted_flat) -> Sequence[int]:
        """Distinct even-position keys of a sorted flat array, in order."""
        raise NotImplementedError

    def pair_with_constant(
        self, values: Iterable[int], constant: int, *, constant_as_object: bool = True
    ):
        """Flat pairs ⟨v, c⟩ (or ⟨c, v⟩) for every v in ``values``."""
        raise NotImplementedError

    def key_slice(self, sorted_flat, key: int) -> Tuple[int, int]:
        """[start, end) pair-index range of rows whose even part == key."""
        raise NotImplementedError

    def key_lower_bound(self, sorted_flat, key: int) -> int:
        """First pair index whose even component is ``>= key``.

        Generic binary search over the flat layout; backends may
        override with a vectorized search.  The compressed backend
        cuts its decoded windows at key-group boundaries with it.
        """
        low, high = 0, len(sorted_flat) // 2
        while low < high:
            mid = (low + high) // 2
            if sorted_flat[2 * mid] < key:
                low = mid + 1
            else:
                high = mid
        return low

    def select_in_ranges(self, sorted_values, ranges) -> Sequence[int]:
        """Values falling inside any of the inclusive ``[lo, hi]`` ranges.

        ``sorted_values`` is an ascending int sequence; ``ranges`` an
        iterable of ``(lo, hi)`` bounds, ascending and disjoint (the
        layout of ``IntervalSet.intervals()``).  Returns the matching
        values in ascending order.  Generic two-pointer/bisect sweep;
        backends may override with a vectorized search.  Used by the
        hybrid query rewrite to filter stored class/property candidates
        through an interval-encoded reach set.
        """
        out = []
        index, n_values = 0, len(sorted_values)
        for low, high in ranges:
            if index >= n_values:
                break
            # Binary-search forward to the first value >= low.
            lo_i, hi_i = index, n_values
            while lo_i < hi_i:
                mid = (lo_i + hi_i) // 2
                if sorted_values[mid] < low:
                    lo_i = mid + 1
                else:
                    hi_i = mid
            index = lo_i
            while index < n_values and sorted_values[index] <= high:
                out.append(sorted_values[index])
                index += 1
        return out

    # -- columns (set-at-a-time query evaluation) -------------------------
    # A *column* is one strided half of a decoded flat array (or any
    # int sequence); results are native columns.  The BGP evaluator
    # feeds ⟨key, row number⟩ pairs to :meth:`merge_join` and gathers the
    # joined rows back with :meth:`take`.
    def index_by_key(self, column):
        """Flat pairs ⟨column[i], i⟩ sorted on the key (ties by row): a
        column keyed for a join whose companions are its row numbers."""
        order = array(
            "q", sorted(range(len(column)), key=column.__getitem__)
        )
        return self.interleave(self.take(column, order), order)

    def interleave(self, evens, odds):
        """Flat pairs ⟨evens[i], odds[i]⟩ of two equal-length columns."""
        out = array("q", bytes(16 * len(evens)))
        out[0::2] = array("q", evens)
        out[1::2] = array("q", odds)
        return out

    def take(self, column, indices):
        """``column[i]`` for every i of ``indices``, in that order."""
        return array("q", [column[i] for i in indices])

    def where_equal(self, column1, column2):
        """Ascending row indices at which two equal-length columns agree."""
        return array(
            "q",
            [i for i, (a, b) in enumerate(zip(column1, column2)) if a == b],
        )

    def where_present(self, sorted_flat, evens, odds):
        """Ascending row indices i at which ⟨evens[i], odds[i]⟩ is a pair
        of the sorted ``sorted_flat``: one binary search per row, no
        pass over (and no copy of) ``sorted_flat``."""
        n_pairs = len(sorted_flat) // 2
        hits = array("q")
        for i, key in enumerate(zip(evens, odds)):
            low, high = 0, n_pairs
            while low < high:
                mid = (low + high) // 2
                if (sorted_flat[2 * mid], sorted_flat[2 * mid + 1]) < key:
                    low = mid + 1
                else:
                    high = mid
            if low < n_pairs and (
                sorted_flat[2 * low], sorted_flat[2 * low + 1]
            ) == key:
                hits.append(i)
        return hits

    def repeat(self, values, counts):
        """``values[i]`` repeated ``counts[i]`` times, concatenated."""
        out = array("q")
        for value, count in zip(values, counts):
            out.extend(array("q", (value,)) * count)
        return out

    # -- closure emission (θ pre-pass, §4.1) ----------------------------
    def cross_intervals(
        self,
        member_lows,
        member_counts,
        interval_counts,
        interval_lows,
        interval_highs,
        relabel,
    ):
        """Flat pairs ⟨relabel[m], relabel[t]⟩ for interval-coded groups.

        Group *g* has members ``member_lows[g]`` to ``member_lows[g] +
        member_counts[g] - 1`` and owns the next ``interval_counts[g]``
        inclusive ``[interval_lows[i], interval_highs[i]]`` intervals.
        For each group in order, each member in ascending order, each
        covered t in ascending order, emits ⟨relabel[m], relabel[t]⟩ —
        the closed pairs of a :class:`repro.closure.nuutila.ReachIndex`
        read through its ``interval_columns()``.  Generic nested loop;
        the reference the vectorised override is tested against.
        """
        out = array("q")
        interval = 0
        for low, count, n_intervals in zip(
            member_lows, member_counts, interval_counts
        ):
            targets = [
                relabel[value]
                for i in range(interval, interval + n_intervals)
                for value in range(interval_lows[i], interval_highs[i] + 1)
            ]
            interval += n_intervals
            for member in range(low, low + count):
                source = relabel[member]
                for target in targets:
                    out.append(source)
                    out.append(target)
        return out
