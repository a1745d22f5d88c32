"""Immutable columns of encoded ⟨s, p, o⟩ id triples.

An engine's asserted triples (load order, duplicates kept) are one
:class:`TripleColumn`: flat int64 values ``s0 p0 o0 s1 p1 o1 …``, the
layout of a store file's asserted section.  Appending or removing
builds a new column, so snapshots share one by reference.  While
:func:`repro.kernels.numpy_available`, a column is a read-only int64
ndarray worked on vectorised; otherwise an ``array('q')`` and loops.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

from ..kernels import numpy_available


class TripleColumn:
    """A read-only sequence of (s, p, o) id triples over one flat column."""

    __slots__ = ("flat",)

    def __init__(self, flat: Iterable[int] = ()):
        if numpy_available():
            import numpy as np

            flat = np.asarray(flat, dtype=np.int64).reshape(-1)
            flat.flags.writeable = False
        elif not (isinstance(flat, array) and flat.typecode == "q"):
            flat = array("q", flat)
        #: The flat values, three per triple; never written to.
        self.flat = flat

    @classmethod
    def from_triples(cls, triples: Iterable[Tuple[int, int, int]]):
        """A column holding ``triples`` in order."""
        values = chain.from_iterable(triples)
        if numpy_available():
            import numpy as np

            return cls(np.fromiter(values, dtype=np.int64))
        return cls(array("q", values))

    def __len__(self) -> int:
        return len(self.flat) // 3

    def __iter__(self) -> Iterator[Tuple[int, int, int]]:
        values = iter(self.flat.tolist())
        return zip(values, values, values)

    def __getitem__(self, index: int) -> Tuple[int, int, int]:
        start = 3 * range(len(self))[index]
        return tuple(self.flat[start : start + 3].tolist())

    def __add__(self, other: "TripleColumn") -> "TripleColumn":
        if isinstance(self.flat, array):
            return TripleColumn(self.flat + array("q", other.flat))
        import numpy as np

        return TripleColumn(np.concatenate((self.flat, other.flat)))

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
        if isinstance(self.flat, array):
            return self.from_triples(t for t in self if t not in wanted)
        import numpy as np

        # One flat delete: much cheaper than deleting 2-D rows.
        rows = np.asarray(drop, dtype=np.int64)[:, None]
        return TripleColumn(np.delete(self.flat, (3 * rows + (0, 1, 2)).flat))

    def _rows_in(self, wanted: set) -> List[int]:
        """Indices of the triples in ``wanted``: a vectorised pass finds
        the rows sharing a subject with one, then those are checked."""
        if not wanted:
            return []
        if isinstance(self.flat, array):
            return [row for row, t in enumerate(self) if t in wanted]
        import numpy as np

        subjects = np.array([triple[0] for triple in wanted], dtype=np.int64)
        rows = np.flatnonzero(np.isin(self.flat[0::3], subjects))
        found = zip(rows.tolist(), self.flat.reshape(-1, 3)[rows].tolist())
        return [row for row, triple in found if tuple(triple) in wanted]

    def by_property(self) -> Iterator[Tuple[int, object]]:
        """``(property id, flat ⟨s, o⟩ pairs)`` per property, in
        first-seen order, each property's pairs in column order."""
        if isinstance(self.flat, array):
            groups = {}
            for subject, property_id, obj in self:
                groups.setdefault(property_id, []).extend((subject, obj))
            yield from groups.items()
            return
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
