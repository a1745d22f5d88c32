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
"""

from __future__ import annotations

import threading
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple


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

    __slots__ = ("flat", "_buffer")

    def __init__(self, flat: Iterable[int] = ()):
        import numpy as np

        flat = np.asarray(flat, dtype=np.int64).reshape(-1)
        flat.flags.writeable = False
        #: The flat values, three per triple; never written to.
        self.flat = flat
        self._buffer: Optional[_Buffer] = None

    @classmethod
    def _over(cls, buffer: _Buffer, end: int) -> "TripleColumn":
        """The column of ``buffer``'s first ``end`` values."""
        column = cls(buffer.values[:end])
        column._buffer = buffer
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
                    return TripleColumn._over(buffer, stop)
        import numpy as np

        # Spare room for an eighth more and 256 triples: a run of
        # appends copies a growing column O(log n) times.
        values = np.empty(stop + stop // 8 + 3 * 256, dtype=np.int64)
        values[:end] = self.flat
        values[end:stop] = other.flat
        return TripleColumn._over(_Buffer(values, stop), stop)

    def contains(self, probes: Sequence[Optional[tuple]]) -> List[bool]:
        """Per probe, whether the column holds it (``None`` never)."""
        wanted = {probe for probe in probes if probe is not None}
        found = {self[row] for row in self._rows_in(wanted)}
        return [probe in found for probe in probes]

    def without(self, probes: Iterable[Optional[tuple]]) -> "TripleColumn":
        """The column minus every copy of each probe (``None`` skipped)."""
        wanted = {probe for probe in probes if probe is not None}
        drop = self._rows_in(wanted)
        if not drop:
            return self
        import numpy as np

        # One flat delete: much cheaper than deleting 2-D rows.
        rows = np.asarray(drop, dtype=np.int64)[:, None]
        return TripleColumn(np.delete(self.flat, (3 * rows + (0, 1, 2)).flat))

    def _rows_in(self, wanted: set) -> List[int]:
        """Indices of the triples in ``wanted``: a vectorised pass finds
        the rows sharing a subject with one, then those are checked."""
        if not wanted:
            return []
        import numpy as np

        subjects = np.array([triple[0] for triple in wanted], dtype=np.int64)
        rows = np.flatnonzero(np.isin(self.flat[0::3], subjects))
        found = zip(rows.tolist(), self.flat.reshape(-1, 3)[rows].tolist())
        return [row for row, triple in found if tuple(triple) in wanted]

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
