"""The vertically-partitioned triple store (paper §4.2–4.3).

A :class:`TripleStore` maps property ids to :class:`PropertyTable`\\ s.
With the dense numbering of :mod:`repro.dictionary` the property id of a
table is a simple index translation away from its position in the table
array — in this Python reproduction the translation feeds a dict keyed
by property id, which also gracefully accommodates the rare
non-promoted ids discussed in DESIGN.md §6.

The store exposes the three-store workflow of Algorithm 1:
``main`` and ``new`` are TripleStores, while the per-iteration
``inferred`` triples accumulate in an :class:`InferredBuffers` (raw
unsorted append-only buffers, one per property, mirroring the paper's
per-rule output tables).  All bulk passes (sort+dedup commits and the
Figure-5 merges) run on the store's kernel backend
(:mod:`repro.kernels`).
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

from ..dictionary.encoding import EncodedTriple
from ..dictionary.triple_column import TripleColumn
from ..kernels import KernelBackend, resolve_backend
from .property_table import PairArray, PropertyTable


class InferredBuffers:
    """Per-property unsorted output buffers for one rule-firing round.

    Rules emit raw ⟨s, o⟩ pairs here; the buffers get sorted and
    deduplicated once per iteration (Figure 5, first step).  Scalar
    ``emit`` calls append to a per-property tail array; bulk ``extend``
    calls keep a *reference* to the chunk instead of copying it (tables
    never mutate their committed arrays in place, so aliasing is safe)
    — the chunks are concatenated by the consuming backend right before
    the sort.

    Chunk boundaries follow whatever the emitting rule handed in; on
    the compressed backend a committed-table chunk stays in its
    delta-encoded block form until the consuming ``concat``, which
    decodes block-by-block — chunk boundaries therefore align with
    compression blocks and no full int64 copy is staged here.
    """

    __slots__ = ("_tails", "_chunks")

    def __init__(self) -> None:
        self._tails: Dict[int, PairArray] = {}
        self._chunks: Dict[int, List] = {}

    def emit(self, property_id: int, subject: int, obj: int) -> None:
        """Append one inferred ⟨s, o⟩ pair for a property."""
        tail = self._tails.get(property_id)
        if tail is None:
            tail = array("q")
            self._tails[property_id] = tail
        tail.append(subject)
        tail.append(obj)

    def extend(self, property_id: int, flat_pairs) -> None:
        """Append many raw pairs at once (zero-copy chunk reference)."""
        if not len(flat_pairs):
            return
        chunks = self._chunks.get(property_id)
        if chunks is None:
            chunks = []
            self._chunks[property_id] = chunks
        chunks.append(flat_pairs)

    def absorb(self, other: "InferredBuffers") -> None:
        """Adopt another buffer set's contents as chunk references.

        The rule scheduler gives every rule its own buffer, so a
        self-fed rule's output can stay apart, and absorbs the others
        in catalogue order; ``other`` must not be mutated afterwards
        (its tail arrays are aliased, not copied).
        """
        for property_id, chunks in other.chunk_items():
            own = self._chunks.get(property_id)
            if own is None:
                own = []
                self._chunks[property_id] = own
            own.extend(chunks)

    def chunk_items(self) -> Iterator[Tuple[int, List]]:
        """(property_id, [raw chunks…]) for every touched property."""
        for property_id in sorted(self._tails.keys() | self._chunks.keys()):
            chunks: List = []
            tail = self._tails.get(property_id)
            if tail is not None and len(tail):
                chunks.append(tail)
            chunks.extend(self._chunks.get(property_id, ()))
            if chunks:
                yield property_id, chunks

    def __bool__(self) -> bool:
        return any(len(tail) for tail in self._tails.values()) or any(
            len(chunk)
            for chunks in self._chunks.values()
            for chunk in chunks
        )


class TripleStore:
    """Property-id → PropertyTable mapping with bulk loading and the
    column accessor the BGP evaluator reads.

    Every store this one builds (views, per-iteration deltas)
    is a ``type(self)``, so a subclass installed as an engine's main
    store — and its :meth:`_new_table` — holds across the fixed point.
    """

    def __init__(self, *, backend: Union[str, KernelBackend] = "auto"):
        self._tables: Dict[int, PropertyTable] = {}
        self._kernels = resolve_backend(backend)
        #: On a delta built by :meth:`merge_inferred`: per ``own`` key,
        #: property id → the sorted-unique rows that buffer held (where
        #: it alone fed the property, this delta's own table array —
        #: the same rows as far as the delta goes).
        self.own_rows: Dict[int, Dict[int, PairArray]] = {}

    @property
    def kernels(self) -> KernelBackend:
        """The kernel backend this store executes on."""
        return self._kernels

    # ------------------------------------------------------------------
    # Table access
    # ------------------------------------------------------------------
    def table(self, property_id: int) -> Optional[PropertyTable]:
        """The table for a property, or ``None`` if it has no triples."""
        return self._tables.get(property_id)

    def get_or_create(self, property_id: int) -> PropertyTable:
        """The table for a property, creating an empty one if missing."""
        table = self._tables.get(property_id)
        if table is None:
            table = self._new_table(property_id)
            self._tables[property_id] = table
        return table

    def _new_table(self, property_id: int, pairs=None, *, presorted=False):
        return PropertyTable(pairs, backend=self._kernels, presorted=presorted)

    def property_ids(self) -> List[int]:
        """Ids of all non-empty properties."""
        return [pid for pid, table in self._tables.items() if table]

    def __contains__(self, encoded: EncodedTriple) -> bool:
        subject, property_id, obj = encoded
        table = self._tables.get(property_id)
        return bool(table) and table.contains(subject, obj)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add_encoded(self, triples: Iterable[EncodedTriple]) -> None:
        """Bulk-load encoded triples: partition by property, sort, dedup."""
        column = TripleColumn.from_triples(triples)
        for property_id, flat_pairs in column.by_property():
            self.add_pairs(property_id, flat_pairs)

    def add_pairs(self, property_id: int, flat_pairs) -> None:
        """Bulk-load raw pairs for one property."""
        if not len(flat_pairs):
            return
        existing = self._tables.get(property_id)
        if existing is not None and existing:
            sorted_pairs = self._kernels.sort_pairs(flat_pairs, dedup=True)
            existing.merge(sorted_pairs)
        else:
            self._tables[property_id] = self._new_table(
                property_id, flat_pairs
            )

    def load_table(
        self, property_id: int, flat_pairs, *, presorted: bool = True
    ) -> None:
        """Install one property table from committed flat pair data.

        With ``presorted=True`` (the default) the data must already be
        sorted on ⟨s, o⟩ and duplicate-free — the invariant the
        persistence format guarantees — so loading is O(read) with no
        re-sort.  Replaces any existing table for the property.
        """
        if not len(flat_pairs):
            self._tables.pop(property_id, None)
            return
        self._tables[property_id] = self._new_table(
            property_id, flat_pairs, presorted=presorted
        )

    def remove_pairs(self, property_id: int, rows_sorted) -> None:
        """Drop sorted-unique pairs from one property's table (see
        :meth:`PropertyTable.remove`); a table left empty goes."""
        table = self._tables.get(property_id)
        if table is not None:
            table.remove(rows_sorted)
            if not table:
                del self._tables[property_id]

    def table_arrays(self) -> Iterator[Tuple[int, PairArray]]:
        """(property_id, committed flat ⟨s, o⟩ array) per non-empty
        property, in ascending property-id order (deterministic for
        serialization)."""
        for property_id in sorted(self._tables):
            table = self._tables[property_id]
            if table:
                yield property_id, table.pairs

    def share_view(self) -> "TripleStore":
        """A zero-copy read view over the current committed arrays.

        The returned store's tables *alias* this store's pair arrays
        (and any materialised ⟨o, s⟩ caches, with their pending rows).
        This is safe because committed arrays are never mutated in
        place — every merge replaces a table's array wholesale — so
        later writes to this store leave the view frozen at the current
        state: copy-on-write snapshot semantics for free.  The view must
        only be read.
        """
        view = type(self)(backend=self._kernels)
        for property_id, table in self._tables.items():
            if not table:
                continue
            shared = view._new_table(property_id, table.pairs, presorted=True)
            # Share the committed ⟨o, s⟩ permutation and its pending
            # rows too; the owner replaces both, never mutates them.
            shared._os_cache = table._os_cache
            shared._os_pending = table._os_pending
            view._tables[property_id] = shared
        return view

    # ------------------------------------------------------------------
    # Figure-5 iteration update
    # ------------------------------------------------------------------
    def merge_inferred(
        self,
        inferred: InferredBuffers,
        own: Optional[Dict[int, InferredBuffers]] = None,
    ) -> "TripleStore":
        """Apply the per-iteration update; returns the ``new`` store.

        For every property with inferred pairs: sort + dedup the raw
        buffer, merge it into this (main) store, and collect the pairs
        that were genuinely new into the returned delta store.

        Each buffer of ``own`` (keyed by the emitting rule) is sorted
        on its own first; its sorted rows are kept on the delta as
        ``own_rows[key]``, so the next iteration can drop them from that
        rule's view (:meth:`without`) with no re-sort.  A property fed
        by one own buffer alone merges that sorted run as it is.
        """
        new_store = type(self)(backend=self._kernels)
        kernels = self._kernels

        def sort(chunks):
            return kernels.sort_pairs(kernels.concat(chunks), dedup=True)

        chunks_of = dict(inferred.chunk_items())
        owners: Dict[int, List[int]] = {}
        for key, buffers in (own or {}).items():
            rows = new_store.own_rows[key] = {}
            for property_id, chunks in buffers.chunk_items():
                rows[property_id] = sort(chunks)
                owners.setdefault(property_id, []).append(key)
        for property_id in sorted(chunks_of.keys() | owners.keys()):
            keys = owners.get(property_id, [])
            runs = [new_store.own_rows[key][property_id] for key in keys]
            sole = None
            if property_id in chunks_of or len(runs) > 1:
                sorted_pairs = sort(chunks_of.get(property_id, []) + runs)
            else:
                sole, sorted_pairs = keys[0], runs[0]
            new_pairs = self.get_or_create(property_id).merge(sorted_pairs)
            if len(new_pairs):
                table = new_store._tables[property_id] = new_store._new_table(
                    property_id, new_pairs, presorted=True
                )
                if sole is not None:
                    # The whole delta table is the sole owner's rows, so
                    # :meth:`without` drops it with no difference pass.
                    new_store.own_rows[sole][property_id] = table.pairs
        return new_store

    def without(self, rows: Dict[int, PairArray], keep: int) -> "TripleStore":
        """A read-only view of this store minus ``rows``, per property.

        ``rows`` maps property id → sorted-unique pairs to drop (an
        entry that *is* a table's array drops the whole table); the
        ``keep`` property is shared untouched, and so is every table
        that loses nothing.
        """
        view = type(self)(backend=self._kernels)
        for property_id, table in self._tables.items():
            drop = rows.get(property_id)
            if drop is not None and property_id != keep:
                if drop is table.pairs:
                    continue
                kept = self._kernels.difference(table.pairs, drop)
                if len(kept) < len(table.pairs):
                    if len(kept):
                        view._tables[property_id] = view._new_table(
                            property_id, kept, presorted=True
                        )
                    continue
            view._tables[property_id] = table
        return view

    # ------------------------------------------------------------------
    # Inspection / column reads
    # ------------------------------------------------------------------
    @property
    def n_triples(self) -> int:
        """Total number of stored triples."""
        return sum(table.n_pairs for table in self._tables.values())

    def __bool__(self) -> bool:
        return any(table for table in self._tables.values())

    def triples(self) -> Iterator[EncodedTriple]:
        """Iterate every (s, p, o), grouped by property."""
        for property_id, table in self._tables.items():
            for subject, obj in table.iter_pairs():
                yield (subject, property_id, obj)

    def columns(
        self,
        property_id: int,
        key: Optional[int] = None,
        *,
        by_object: bool = False,
    ):
        """One property's rows as a decoded flat pair array; see
        :meth:`PropertyTable.columns`.  An absent property is empty."""
        table = self._tables.get(property_id)
        if table is None:
            return self._kernels.concat(())
        return table.columns(key, by_object=by_object)

    def present(self, property_id: int, subjects, objects):
        """Indices of the ⟨subjects[i], objects[i]⟩ that are rows of one
        property; see :meth:`PropertyTable.present`."""
        table = self._tables.get(property_id)
        if table is None:
            return self._kernels.concat(())
        return table.present(subjects, objects)

    def table_size(self, property_id: int) -> int:
        """Number of rows of one property (0 when absent)."""
        table = self._tables.get(property_id)
        return 0 if table is None else table.n_pairs

    def memory_bytes(self, seen: Optional[set] = None) -> int:
        """Total bytes held by all pair arrays and o-s caches.

        ``seen`` (an identity set, shared across a walk of several
        stores/snapshots) makes the figure *resident* bytes: arrays and
        compressed blocks shared between versions are counted once.
        """
        if seen is None:
            seen = set()
        return sum(
            table.memory_bytes(seen) for table in self._tables.values()
        )
