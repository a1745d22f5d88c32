"""Immutable columns of encoded ⟨s, p, o⟩ id triples.

An engine's asserted triples (load order, duplicates kept) are one
:class:`TripleColumn`: flat int64 values ``s0 p0 o0 s1 p1 o1 …``, the
layout of a store file's asserted section.  Appending or removing
builds a new column, so snapshots share one by reference.  A column
is a read-only int64 ndarray worked on vectorised (numpy is imported
on first use, so ``import repro`` stays light).

Appending is O(appended), amortised: the result of an append views a
private buffer with spare capacity, and an append to the column that
ends at the buffer's written end writes into that capacity.  Nothing
before a column's end is ever written again, so every column stays
valid; appending to any other column copies it into a new buffer.

Membership is O(k log n) for k probes.  The first probe of a column
sorts its subjects once (a :class:`_SubjectIndex`, 16 B a row); an
append carries the index, its new rows scanned, and
:meth:`TripleColumn.without` hands its result the same sorted arrays
with the dropped rows noted, so neither an add nor a delete re-sorts.  Once the rows the index does
not cover pass 1/:data:`REINDEX_SHARE` of a column, its next probe
sorts afresh.
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import (
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)


#: A probe re-sorts a column's subjects once more than 1/REINDEX_SHARE
#: of its rows lie outside its index (appended, or dropped from it).
#: ``without`` notes its dropped rows rather than compact the index:
#: renumbering every indexed row cost a bsbm delete 1–2 ms more.
REINDEX_SHARE = 64


class _SubjectIndex(NamedTuple):
    """The subjects of a column's first ``size`` rows, sorted.

    ``subjects[i]`` is the subject of row ``rows[i]`` (ties in row
    order).  A column sharing the index holds those rows minus
    ``dropped`` (sorted row numbers), in order, then a tail of its own
    that probes scan.  Never mutated: every column that shares the
    sorted arrays stays answerable.
    """

    subjects: object
    rows: object
    size: int
    dropped: object

    @classmethod
    def of(cls, flat) -> "_SubjectIndex":
        import numpy as np

        subjects = flat[0::3]
        # Stable and near-linear: a file lists a subject's triples
        # together, so the subjects are mostly sorted runs already.
        rows = np.argsort(subjects, kind="stable")
        return cls(subjects[rows], rows, len(subjects), rows[:0])

    def covered(self) -> int:
        """How many leading rows of a sharing column it indexes."""
        return self.size - len(self.dropped)


def _among(values, sorted_keys):
    """Per value, whether the sorted, non-empty ``sorted_keys`` holds it
    (a binary search each: ``np.isin`` costs more on a few keys)."""
    import numpy as np

    at = np.minimum(sorted_keys.searchsorted(values), len(sorted_keys) - 1)
    return sorted_keys[at] == values


class _Buffer:
    """The writable array appended columns view, and how much of it is
    written (the end of the one column that may append in place)."""

    __slots__ = ("values", "end", "lock")

    def __init__(self, values, end: int):
        self.values = values
        self.end = end
        self.lock = threading.Lock()


class TripleColumn:
    """A read-only sequence of (s, p, o) id triples over one flat column."""

    __slots__ = ("flat", "_buffer", "_index")

    def __init__(self, flat: Iterable[int] = ()):
        import numpy as np

        flat = np.asarray(flat, dtype=np.int64).reshape(-1)
        flat.flags.writeable = False
        #: The flat values, three per triple; never written to.
        self.flat = flat
        self._buffer: Optional[_Buffer] = None
        self._index: Optional[_SubjectIndex] = None

    @classmethod
    def _over(
        cls, buffer: _Buffer, end: int, index: Optional[_SubjectIndex]
    ) -> "TripleColumn":
        """The column of ``buffer``'s first ``end`` values, indexed by
        ``index`` (its appended rows scanned)."""
        column = cls(buffer.values[:end])
        column._buffer = buffer
        column._index = index
        return column

    @classmethod
    def from_triples(cls, triples: Iterable[Tuple[int, int, int]]):
        """A column holding ``triples`` in order."""
        import numpy as np

        return cls(np.fromiter(chain.from_iterable(triples), dtype=np.int64))

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        values = iter(self.flat.tolist())
        return zip(values, values, values)

    def __getitem__(self, index: int) -> Tuple[int, int, int]:
        start = 3 * range(len(self))[index]
        return tuple(self.flat[start : start + 3].tolist())

    def __add__(self, other: "TripleColumn") -> "TripleColumn":
        if not len(other.flat):
            return self
        if not len(self.flat):
            return other
        end = len(self.flat)
        stop = end + len(other.flat)
        buffer = self._buffer
        if buffer is not None:
            # Two appends to one column race for the buffer's tail.
            with buffer.lock:
                if buffer.end == end and stop <= len(buffer.values):
                    buffer.values[end:stop] = other.flat
                    buffer.end = stop
                    return TripleColumn._over(buffer, stop, self._index)
        import numpy as np

        # Spare room for an eighth more and 256 triples: a run of
        # appends copies a growing column O(log n) times.
        values = np.empty(stop + stop // 8 + 3 * 256, dtype=np.int64)
        values[:end] = self.flat
        values[end:stop] = other.flat
        return TripleColumn._over(_Buffer(values, stop), stop, self._index)

    def contains(self, probes: Sequence[Optional[tuple]]) -> List[bool]:
        """Per probe, whether the column holds it (``None`` never)."""
        wanted = {probe for probe in probes if probe is not None}
        found = {self[row] for row in self._locate(wanted)[0].tolist()}
        return [probe in found for probe in probes]

    def without(self, probes: Iterable[Optional[tuple]]) -> "TripleColumn":
        """The column minus every copy of each probe (``None`` skipped),
        indexed by this column's sorted subjects."""
        wanted = {probe for probe in probes if probe is not None}
        rows, indexed, index = self._locate(wanted)
        if not len(rows):
            return self
        import numpy as np

        from ..kernels.numpy_backend import delete_rows

        column = TripleColumn(delete_rows(self.flat, rows, 3))
        column._index = index._replace(
            dropped=np.union1d(index.dropped, indexed)
        )
        return column

    def _locate(self, wanted: set):
        """``(rows, indexed, index)``: the ascending rows holding a
        triple in ``wanted``, the index's numbers for those it covers,
        and the index used (``None`` when nothing was probed)."""
        import numpy as np

        none = np.empty(0, dtype=np.int64)
        if not wanted or not len(self.flat):
            return none, none, None
        from ..kernels.numpy_backend import ranges

        index = self._indexed()
        subjects = np.array(sorted({triple[0] for triple in wanted}))
        starts = index.subjects.searchsorted(subjects, "left")
        counts = index.subjects.searchsorted(subjects, "right") - starts
        indexed = index.rows[ranges(starts, counts)]
        current = indexed
        if len(index.dropped):
            kept = ~_among(indexed, index.dropped)
            current = (indexed - index.dropped.searchsorted(indexed))[kept]
            indexed = indexed[kept]
        covered = index.covered()
        tail = covered + np.flatnonzero(
            _among(self.flat[3 * covered :: 3], subjects)
        )
        candidates = np.concatenate((current, tail))
        triples = self.flat.reshape(-1, 3)[candidates].tolist()
        held = np.array(
            [tuple(triple) in wanted for triple in triples], dtype=bool
        )
        rows = np.sort(candidates[held])
        return rows, indexed[held[: len(indexed)]], index

    def _indexed(self) -> _SubjectIndex:
        """This column's index, sorted afresh on the first probe and
        once too many rows lie outside it.  Two threads probing at once
        may both sort; each gets a correct index, and either is kept."""
        index = self._index
        if index is not None:
            outside = len(self) - index.covered() + len(index.dropped)
            if outside * REINDEX_SHARE <= len(self):
                return index
        index = self._index = _SubjectIndex.of(self.flat)
        return index

    def by_property(self) -> Iterator[Tuple[int, object]]:
        """``(property id, flat ⟨s, o⟩ pairs)`` per property, in
        first-seen order, each property's pairs in column order."""
        import numpy as np

        rows = self.flat.reshape(-1, 3)
        if not len(rows):
            return
        order = np.argsort(rows[:, 1], kind="stable")
        starts = (np.flatnonzero(np.diff(rows[order, 1])) + 1).tolist()
        bounds = [0, *starts, len(rows)]
        pairs = rows[:, 0::2][order]
        # The stable sort puts each property's first occurrence first.
        for group in np.argsort(order[bounds[:-1]]).tolist():
            start, end = bounds[group], bounds[group + 1]
            yield int(rows[order[start], 1]), pairs[start:end].ravel()
