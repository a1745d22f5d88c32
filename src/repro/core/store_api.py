"""The unified ``repro.Store`` facade: a serving-grade read/write API.

The paper's pitch is that materialized inference "can be consumed as
explicit data without integrating the inference engine with the runtime
query engine".  This module is the single entry point that makes that
consumption ergonomic:

* **Lazy materialization** — :meth:`Store.add` / :meth:`Store.remove`
  only mark the closure stale; the next read flushes the pending
  mutations, using the semi-naive incremental fixed point for pure
  additions and a rebuild for deletions (forward chaining has no cheap
  deletion, paper §1).  Callers never orchestrate
  ``load_triples() + materialize()`` themselves.
* **Snapshot-isolated reads** — :meth:`Store.snapshot` returns an
  immutable :class:`Snapshot` over the store's committed pair arrays.
  Committed arrays are never mutated in place (merges replace them
  wholesale), so a snapshot is a zero-copy copy-on-write view: later
  writers proceed while the snapshot keeps serving the closure it was
  taken from.
* **One query entry point** — :meth:`Store.query` accepts a decoded
  ⟨s, p, o⟩ pattern (``None`` wildcards), a :class:`TriplePattern` (or
  a list of them), a prebuilt :class:`Query`, or a BGP string like
  ``"?s rdf:type ex:Person"`` (see :func:`repro.query.parse_bgp`).
* **Persistence** — :meth:`Store.save` / :meth:`Store.load` serialize
  the dictionary and the encoded, sorted pair arrays so a materialized
  closure reloads in O(read), with no inference re-run.

The asserted/inferred split (:meth:`Store.asserted`,
:meth:`Store.inferred`) is computed on *encoded* id triples — a set
diff over small int tuples — instead of decoding the whole closure.
"""

from __future__ import annotations

import io
import json
import os
import struct
import sys
import tempfile
import warnings
import zlib
from array import array
from dataclasses import dataclass, replace
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..dictionary.encoding import (
    Dictionary,
    DictionaryError,
    EncodedTriple,
)
from ..faults import fire as _fire_fault
from ..kernels import KernelBackend
from ..query.bgp import Query, TriplePattern, parse_bgp
from ..rdf.graph import Graph
from ..rdf.ntriples import parse_file
from ..rdf.terms import Term, Triple, term_from_record, term_to_record
from ..rules.spec import Rule
from .engine import MATERIALIZE_MODES, InferrayEngine, MaterializationStats

__all__ = [
    "Snapshot",
    "Store",
    "StoreConfig",
    "StoreChecksumError",
    "StoreCorruptionError",
    "StoreFormatError",
    "StoreMagicError",
    "StoreTruncationError",
    "StoreVersionError",
    "is_store_file",
]

#: Magic bytes opening every serialized store file.
STORE_MAGIC = b"REPRO-STORE\x00"

#: Current on-disk format version.  Version 2 added the
#: ``"materialize"`` header key and the optional ``"sections"`` list
#: (named blobs appended after the asserted data — readers skip
#: sections they do not recognize, with a warning, so the section
#: mechanism is forward-compatible).  Version-1 files still load and
#: are treated as full-mode stores.  Version 3 adds per-table
#: ``"encoding": "crp1"`` entries: a compressed-backend store writes
#: its delta-encoded block streams verbatim (``n_bytes`` encoded bytes
#: instead of ``n_values * 8`` raw ones), so a compressed closure
#: reloads in O(compressed read) with its blocks intact.  Version 4
#: adds integrity metadata: a ``"crc32"`` on every table and section
#: entry, an ``"asserted_crc32"``, and the total ``"payload_bytes"``
#: after the header — the reader verifies each blob against its
#: checksum and fails with a :class:`StoreChecksumError` naming the
#: blob and its file offset instead of loading silently corrupted
#: data.  Versions 1–3 (no checksums) still load unchanged.
STORE_FORMAT_VERSION = 4

#: Format version that introduced compressed table entries (kept for
#: reference; every new file is written as v4 regardless of backend).
_COMPRESSED_FORMAT_VERSION = 3

#: On-disk format versions this build reads.
_SUPPORTED_VERSIONS = (1, 2, 3, 4)


class StoreFormatError(ValueError):
    """Raised when a file is not a readable serialized store."""


class StoreCorruptionError(StoreFormatError):
    """A store file is damaged (as opposed to merely incompatible).

    ``section`` names the part of the file that failed (for example
    ``"header"``, ``"table pid=7"``, ``"asserted"``, or
    ``"section 'litemat'"``) and ``offset`` is the byte position where
    the damage was detected, when known.  Both are folded into the
    message and kept as attributes for programmatic use.
    """

    def __init__(
        self,
        message: str,
        *,
        section: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> None:
        detail = message
        if section is not None:
            detail = f"{detail} [section: {section}]"
        if offset is not None:
            detail = f"{detail} [offset: {offset}]"
        super().__init__(detail)
        self.section = section
        self.offset = offset


class StoreMagicError(StoreCorruptionError):
    """The file does not start with the store magic bytes."""


class StoreTruncationError(StoreCorruptionError):
    """The file ends before a declared blob is complete."""


class StoreChecksumError(StoreCorruptionError):
    """A blob's CRC32 does not match its header entry (v4 files)."""


class StoreVersionError(StoreCorruptionError):
    """The file declares a format version this build cannot read."""


@dataclass(frozen=True)
class StoreConfig:
    """Configuration shared by a :class:`Store` and its engine.

    ``timeout_seconds`` bounds every (re)materialization the store
    triggers; the engine raises
    :class:`~repro.core.engine.MaterializationTimeout` past it.
    """

    ruleset: Union[str, List[Rule]] = "rdfs-default"
    algorithm: str = "auto"
    backend: Union[str, KernelBackend] = "auto"
    os_cache: bool = True
    max_iterations: int = 10_000
    timeout_seconds: Optional[float] = None
    #: Workers for the parallel rule scheduler; ``None`` reads
    #: ``$REPRO_WORKERS`` (default 1), ``0`` means all cores.
    workers: Optional[int] = None
    #: Executor substrate for ``workers > 1``: 'thread' or 'process'
    #: force one; 'auto' lets the scheduler's cost model pick
    #: sequential/thread/process per flush from the estimated work
    #: (see :meth:`ParallelRuleScheduler.decide`); ``None`` reads
    #: ``$REPRO_PARALLEL_MODE``.
    parallel_mode: Optional[str] = None
    #: Join-input pairs above which one rule firing is split into
    #: key-range shards; ``None`` reads ``$REPRO_SPLIT_THRESHOLD``
    #: (default 16384), ``0`` disables intra-rule splitting.
    split_threshold: Optional[int] = None
    #: Entailment mode: 'full' materializes the whole closure, 'hybrid'
    #: absorbs the hierarchy-shaped rules into the LiteMat-style
    #: interval encoding (:mod:`repro.litemat`) and answers them at
    #: read time; ``None`` reads ``$REPRO_MATERIALIZE`` (default
    #: 'full').  Answers are identical either way.
    materialize: Optional[str] = None

    @property
    def resolved_materialize(self) -> str:
        """The effective mode after the ``$REPRO_MATERIALIZE`` default."""
        mode = self.materialize
        if mode is None:
            mode = os.environ.get("REPRO_MATERIALIZE") or "full"
        if mode not in MATERIALIZE_MODES:
            raise ValueError(
                f"materialize must be one of {MATERIALIZE_MODES}, "
                f"got {mode!r}"
            )
        return mode

    def make_engine(self) -> InferrayEngine:
        """A fresh engine honouring this configuration."""
        return InferrayEngine(
            self.ruleset,
            algorithm=self.algorithm,
            backend=self.backend,
            max_iterations=self.max_iterations,
            os_cache=self.os_cache,
            workers=self.workers,
            parallel_mode=self.parallel_mode,
            split_threshold=self.split_threshold,
            materialize_mode=self.resolved_materialize,
        )


#: Forms accepted by the unified query entry point (beyond s/p/o).
QueryInput = Union[str, TriplePattern, Query, Sequence[TriplePattern]]


class _ReadAPI:
    """Shared read-side behaviour of :class:`Store` and :class:`Snapshot`.

    Subclasses provide :meth:`_view` returning the triple of
    ``(TripleStore, Dictionary, asserted encoded triples)`` the reads
    run against — the live (freshly flushed) state for a store, the
    frozen state for a snapshot.
    """

    def _view(self):
        raise NotImplementedError

    # -- cardinality and membership -------------------------------------
    @property
    def n_triples(self) -> int:
        """Number of triples in the closure."""
        tables, _, _ = self._view()
        return tables.n_triples

    def __len__(self) -> int:
        return self.n_triples

    def contains(self, triple: Triple) -> bool:
        """Membership test against the closure."""
        tables, dictionary, _ = self._view()
        ids = tuple(
            dictionary.id_of(term)
            for term in (triple.subject, triple.predicate, triple.object)
        )
        if None in ids:
            return False
        return (ids[0], ids[1], ids[2]) in tables

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    # -- iteration ------------------------------------------------------
    def triples(self) -> Iterator[Triple]:
        """Iterate the whole closure, decoded."""
        tables, dictionary, _ = self._view()
        decode = dictionary.decode_triple
        for encoded in tables.triples():
            yield decode(encoded)

    def __iter__(self) -> Iterator[Triple]:
        return self.triples()

    def encoded_triples(self) -> Iterator[EncodedTriple]:
        """Iterate the closure as raw (s, p, o) id triples."""
        tables, _, _ = self._view()
        return tables.triples()

    def asserted(self) -> List[Triple]:
        """The asserted (explicitly added) triples, decoded, first-seen
        order, duplicates collapsed."""
        _, dictionary, asserted = self._view()
        seen = set()
        out = []
        for encoded in asserted:
            if encoded in seen:
                continue
            seen.add(encoded)
            out.append(dictionary.decode_triple(encoded))
        return out

    def inferred(self) -> Iterator[Triple]:
        """Only the triples added by inference.

        The diff runs on encoded id triples — a hash probe per closure
        triple — and only the surviving (inferred) triples are decoded.
        """
        tables, dictionary, asserted = self._view()
        asserted_ids = (
            asserted if isinstance(asserted, frozenset) else set(asserted)
        )
        decode = dictionary.decode_triple
        for encoded in tables.triples():
            if encoded not in asserted_ids:
                yield decode(encoded)

    def graph(self) -> Graph:
        """The closure as a decoded in-memory :class:`Graph`."""
        return Graph(self.triples())

    # -- the unified query entry point ----------------------------------
    def query(self, *args, **kwargs):
        """Query the closure; the argument shape selects the form.

        * ``query()`` / ``query(s, p, o)`` / ``query(subject=…, …)`` —
          decoded triple-pattern lookup with ``None`` wildcards; yields
          :class:`Triple` objects.
        * ``query("?s rdf:type ex:Person")`` — BGP string; returns a
          list of solutions, each a ``{variable name: Term}`` dict.
        * ``query(TriplePattern(…))`` / ``query([p1, p2, …])`` /
          ``query(Query([...]))`` — same, from pre-built patterns.
        """
        if len(args) == 1 and not kwargs:
            candidate = args[0]
            if isinstance(candidate, (str, TriplePattern, Query)):
                return self.solutions(candidate)
            if isinstance(candidate, (list, tuple)) and all(
                isinstance(item, TriplePattern) for item in candidate
            ):
                if not candidate:
                    raise ValueError("empty pattern list")
                return self.solutions(list(candidate))
        return self._pattern_query(*args, **kwargs)

    def _pattern_query(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Decoded single-pattern query (``None`` = wildcard)."""
        tables, dictionary, _ = self._view()
        ids: List[Optional[int]] = []
        for term in (subject, predicate, obj):
            if term is None:
                ids.append(None)
            else:
                term_id = dictionary.id_of(term)
                if term_id is None:
                    return iter(())
                ids.append(term_id)

        def generate() -> Iterator[Triple]:
            decode = dictionary.decode_triple
            for encoded in tables.query(ids[0], ids[1], ids[2]):
                yield decode(encoded)

        return generate()

    def _as_query(self, bgp: QueryInput) -> Query:
        if isinstance(bgp, Query):
            return bgp
        if isinstance(bgp, str):
            return Query(parse_bgp(bgp))
        if isinstance(bgp, TriplePattern):
            return Query([bgp])
        return Query(list(bgp))

    def solutions(self, bgp: QueryInput) -> List[Dict[str, Term]]:
        """All BGP solutions as ``{variable name: Term}`` dicts."""
        query = self._as_query(bgp)
        return [
            {var.name: term for var, term in bindings.items()}
            for bindings in query.execute(self)
        ]

    def select(
        self, bgp: QueryInput, *variables
    ) -> List[Tuple[Term, ...]]:
        """Distinct projected BGP solutions (SELECT DISTINCT)."""
        return self._as_query(bgp).select(self, *variables)

    def ask(self, bgp: QueryInput) -> bool:
        """True iff the BGP has at least one solution."""
        return self._as_query(bgp).ask(self)


class Snapshot(_ReadAPI):
    """An immutable, point-in-time view of a store's closure.

    Taking one is cheap: the snapshot aliases the store's committed
    pair arrays (copy-on-write — see
    :meth:`repro.store.triple_store.TripleStore.share_view`) and pins
    the asserted-id set.  Concurrent readers holding a snapshot keep
    seeing a consistent closure while writers mutate the store.
    """

    __slots__ = (
        "_tables",
        "_dictionary",
        "_asserted",
        "ruleset_name",
        "epoch",
    )

    def __init__(
        self,
        tables,
        dictionary,
        asserted,
        ruleset_name: str,
        epoch: int = 0,
    ):
        self._tables = tables
        self._dictionary = dictionary
        self._asserted = frozenset(asserted)
        self.ruleset_name = ruleset_name
        #: The store's closure epoch this snapshot was pinned at.
        self.epoch = epoch

    def _view(self):
        return self._tables, self._dictionary, self._asserted

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<Snapshot {self.n_triples} triples, "
            f"epoch={self.epoch}, ruleset={self.ruleset_name!r}>"
        )


class Store(_ReadAPI):
    """The unified facade: mutate freely, read a complete closure.

    >>> from repro.rdf import iri, Triple, RDF, RDFS
    >>> store = Store([
    ...     Triple(iri("ex:human"), RDFS.subClassOf, iri("ex:mammal")),
    ...     Triple(iri("ex:Bart"), RDF.type, iri("ex:human")),
    ... ])
    >>> Triple(iri("ex:Bart"), RDF.type, iri("ex:mammal")) in store
    True
    >>> [s["who"] for s in store.query("?who a ex:mammal")]
    [IRI(value='ex:Bart')]

    Mutations are lazy: the closure is (re)materialized on the next
    read — incrementally for pure additions, via rebuild when
    deletions are pending.
    """

    def __init__(
        self,
        triples: Optional[Iterable[Triple]] = None,
        *,
        config: Optional[StoreConfig] = None,
        **options,
    ):
        if config is None:
            config = StoreConfig(**options)
        elif options:
            config = replace(config, **options)
        self.config = config
        self._engine = config.make_engine()
        self._pending_adds: List[Triple] = []
        self._pending_removes: List[Triple] = []
        self._last_stats: Optional[MaterializationStats] = None
        #: Monotonic closure version: bumped on every successful flush.
        self._epoch = 0
        if triples is not None:
            self.add(triples)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_file(
        cls,
        path: str,
        *,
        config: Optional[StoreConfig] = None,
        **options,
    ) -> "Store":
        """A store seeded from an N-Triples (or ``.ttl`` Turtle) file."""
        store = cls(config=config, **options)
        store.add_file(path)
        return store

    def add_file(self, path: str) -> int:
        """Assert every triple of a file; returns the count.

        ``.ttl`` / ``.turtle`` files are parsed as Turtle, anything
        else as N-Triples.  All or nothing: a malformed line raises
        with no triple of the file asserted.

        An N-Triples file added while nothing is queued and no closure
        has been materialized is encoded straight into the engine
        (:meth:`InferrayEngine.load_file`) — same ids as queueing its
        triples, without building them; inference still waits for the
        next read.  Otherwise the triples are queued like :meth:`add`.
        Either way, everything added before the first read is numbered
        as one dataset: a later file may use as a property a term an
        earlier one used only as a resource.
        """
        if path.endswith((".ttl", ".turtle")):
            from ..rdf.turtle import parse_turtle_file

            return self.add(parse_turtle_file(path))
        if not (
            self._pending_adds
            or self._pending_removes
            or self._engine.is_materialized
        ):
            try:
                return self._engine.load_file(path)
            except DictionaryError:
                # Queued instead: the first flush renumbers the union.
                pass
        return self.add(parse_file(path))

    # ------------------------------------------------------------------
    # Mutations (lazy)
    # ------------------------------------------------------------------
    def add(self, triples: Union[Triple, Iterable[Triple]]) -> int:
        """Schedule triples for assertion; returns the count scheduled.

        Nothing is materialized here — the next read flushes the
        pending delta through the semi-naive incremental fixed point.
        """
        if isinstance(triples, Triple):
            triples = [triples]
        # Drained first: extend() would keep what a parser yielded
        # before it raised.
        batch = list(triples)
        self._pending_adds.extend(batch)
        return len(batch)

    def remove(self, triples: Union[Triple, Iterable[Triple]]) -> int:
        """Schedule asserted triples for retraction; returns the count
        of distinct triples actually dequeued or scheduled.

        Every queued (pending-add) copy of the triple is dropped, and
        if the triple is *also* already asserted in the engine a
        retraction is scheduled too — ``remove`` always wins over any
        earlier ``add``.  Retracting triples that were never asserted
        (inferred or unknown) is a no-op, mirroring
        :meth:`InferrayEngine.retract_and_rematerialize`, and does not
        count toward the return value.
        """
        if isinstance(triples, Triple):
            triples = [triples]
        targets = list(triples)
        if not targets:
            return 0
        target_set = set(targets)
        dequeued = set()
        if self._pending_adds:
            kept = []
            for pending in self._pending_adds:
                if pending in target_set:
                    dequeued.add(pending)
                else:
                    kept.append(pending)
            self._pending_adds = kept
        engine_asserted = set(self._engine.asserted_encoded())
        scheduled = 0
        seen = set()
        for triple in targets:
            if triple in seen:
                continue
            seen.add(triple)
            hit = triple in dequeued
            if self._encode_known(triple) in engine_asserted:
                self._pending_removes.append(triple)
                hit = True
            if hit:
                scheduled += 1
        return scheduled

    def _encode_known(self, triple: Triple):
        """The encoded id triple, or ``None`` for unknown terms."""
        dictionary = self._engine.dictionary
        ids = tuple(
            dictionary.id_of(term)
            for term in (triple.subject, triple.predicate, triple.object)
        )
        return None if None in ids else ids

    @property
    def stale(self) -> bool:
        """Whether mutations are pending against the current closure."""
        return bool(
            self._pending_adds
            or self._pending_removes
            or not self._engine.is_materialized
        )

    # ------------------------------------------------------------------
    # Materialization control
    # ------------------------------------------------------------------
    def _refresh(self) -> Optional[MaterializationStats]:
        """Flush pending mutations; returns stats if inference ran.

        A failed flush (timeout, fixed-point bound, kernel error) must
        never lose writes: each stage's delta stays queued until the
        engine has durably absorbed it, and on exception whatever was
        not yet handed over is restored to the pending queues, so
        :attr:`stale` remains true and a later flush retries it.
        """
        engine = self._engine
        timeout = self.config.timeout_seconds
        adds = self._pending_adds
        removes = self._pending_removes
        if not adds and not removes:
            if engine.is_materialized:
                return None
            stats = engine.materialize(timeout_seconds=timeout)
            self._commit_flush(stats)
            return stats
        self._pending_adds = []
        self._pending_removes = []
        try:
            if not engine.is_materialized:
                # No closure yet: everything asserted so far is still
                # one dataset, closed once.
                if removes:
                    engine.retract(removes)
                    removes = []
                try:
                    engine.load_triples(adds)
                except DictionaryError:
                    engine = self._renumbered_with(adds)
                adds = []
                stats = engine.materialize(timeout_seconds=timeout)
            elif removes:
                # Deletion: forward chaining requires a rebuild
                # (paper §1).
                stats = engine.retract_and_rematerialize(
                    removes, timeout_seconds=timeout
                )
                removes = []
                if adds:
                    stats = engine.materialize_incremental(
                        adds, timeout_seconds=timeout
                    )
                    adds = []
            else:
                stats = engine.materialize_incremental(
                    adds, timeout_seconds=timeout
                )
                adds = []
        except BaseException:
            self._restore_pending(adds, removes)
            raise
        self._commit_flush(stats)
        return stats

    def _renumbered_with(self, adds: List[Triple]) -> InferrayEngine:
        """Swap in an engine holding the asserted triples plus ``adds``.

        ``adds`` uses as a property a term the not-yet-materialized
        engine numbered as a resource.  No closure depends on those ids
        yet, so the union is numbered afresh as one dataset — the ids
        it would have had queued whole.  Raises, with the old engine
        still in place, if the union cannot be numbered either.
        """
        old = self._engine
        decode = old.dictionary.decode_triple
        union = [decode(encoded) for encoded in old.asserted_encoded()]
        union.extend(adds)
        engine = self.config.make_engine()
        engine.load_triples(union)
        self._engine = engine
        old.close()
        return engine

    def _commit_flush(self, stats: MaterializationStats) -> None:
        """Record a successful flush: stats and a new closure epoch."""
        self._last_stats = stats
        self._epoch += 1

    def _restore_pending(
        self, adds: List[Triple], removes: List[Triple]
    ) -> None:
        """Re-queue the deltas a failed flush had not yet applied.

        Deltas the engine absorbed before failing are filtered out by
        probing its asserted set: an aborted incremental flush has
        already extended ``_asserted`` (and an aborted rebuild already
        dropped the retracted triples), and the engine's own staleness
        flag makes the next flush finish the inference over them —
        re-queueing those would double-apply the delta.
        """
        if adds or removes:
            absorbed = set(self._engine.asserted_encoded())
            adds = [
                t for t in adds if self._encode_known(t) not in absorbed
            ]
            removes = [
                t for t in removes if self._encode_known(t) in absorbed
            ]
        self._pending_adds = adds + self._pending_adds
        self._pending_removes = removes + self._pending_removes

    def materialize(self) -> MaterializationStats:
        """Force the closure current now; returns the run's stats.

        Reads do this implicitly; calling it explicitly is useful to
        pay the inference cost at a controlled time (e.g. before
        serving) or to obtain the stats of the flush.  When nothing is
        pending this is the engine's cheap idempotent no-op.
        """
        stats = self._refresh()
        if stats is None:
            stats = self._engine.materialize(
                timeout_seconds=self.config.timeout_seconds
            )
        return stats

    @property
    def stats(self) -> Optional[MaterializationStats]:
        """Stats of the most recent materialization flush, if any."""
        return self._last_stats

    @property
    def epoch(self) -> int:
        """The closure version: bumped on every successful flush.

        Snapshots carry the epoch they were pinned at, so a serving
        layer can tell readers exactly which closure version answered
        (and how far behind the live store a pinned reader is).
        """
        return self._epoch

    @property
    def engine(self) -> InferrayEngine:
        """The underlying engine (advanced use; may be stale until a
        read or :meth:`materialize` flushes pending mutations)."""
        return self._engine

    @property
    def materialize_mode(self) -> str:
        """The entailment mode this store runs under: 'full' or 'hybrid'."""
        return self._engine.materialize_mode

    @property
    def absorbed_rules(self) -> Tuple[str, ...]:
        """Rules the active hybrid encoding answers at read time.

        Empty in full mode, before the first flush, and when the last
        hybrid flush fell back to the full catalogue (see
        :attr:`hybrid_fallback`).
        """
        return tuple(self._engine.absorbed_rule_names)

    @property
    def hybrid_fallback(self) -> Optional[str]:
        """Why the last hybrid flush ran the full catalogue, or None."""
        return self._engine.hybrid_fallback_reason

    @property
    def n_asserted(self) -> int:
        """Asserted triples, including pending ones (duplicates incl.)."""
        return self._engine.n_asserted + len(self._pending_adds)

    def memory_bytes(self) -> int:
        """Bytes held by the store's pair arrays and caches."""
        return self._engine.memory_bytes()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the store's worker pools and shared-memory segments.

        Parallel flushes keep their worker pool (and, in process mode,
        the exported shared-memory segments) alive between flushes so
        incremental updates never pay a pool cold start; ``close()``
        tears that state down deterministically.  Idempotent, and the
        store stays *readable and writable* — the next parallel flush
        lazily restarts its pool.  Garbage collection would reap the
        pools too (``weakref.finalize``), but long-lived processes
        (servers, notebooks) should close explicitly — or use the
        store as a context manager::

            with Store(triples, workers=4) as store:
                ...  # pools live here
            # pools and segments released
        """
        self._engine.close()

    def __enter__(self) -> "Store":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Read-side plumbing
    # ------------------------------------------------------------------
    def _view(self):
        self._refresh()
        engine = self._engine
        # The engine's asserted list is handed out uncopied — reads
        # only iterate it (copying per read would cost O(n_asserted)
        # on every BGP binding probe); snapshot() freezes its own copy.
        # ``read_view`` is ``main`` in full mode and the hybrid virtual
        # view (stored tables + interval-encoding rewrite) in hybrid
        # mode — every read above this line is mode-agnostic.
        return engine.read_view, engine.dictionary, engine._asserted

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """An immutable view of the current closure (flushes first).

        The snapshot stays valid — and unchanged — across any later
        :meth:`add` / :meth:`remove` on this store.
        """
        self._refresh()
        engine = self._engine
        return Snapshot(
            engine.read_view.share_view(),
            engine.dictionary,
            engine.asserted_encoded(),
            engine.ruleset_name,
            self._epoch,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Serialize the materialized closure; returns bytes written.

        The file holds the dictionary's term lists plus every
        property's committed (sorted-unique) pair array and the
        asserted id triples, so :meth:`load` restores the closure in
        O(read) without re-running inference.

        The write is crash-safe: the bytes go to a temporary file in
        the same directory, which is fsynced and atomically
        ``os.replace``\\ d over ``path`` (the directory is fsynced too,
        so the rename itself survives power loss).  A crash at any
        point leaves either the previous file intact or the complete
        new one — never a torn mix.  Every blob carries a CRC32 in the
        header (format v4) that :meth:`load` verifies.
        """
        self._refresh()
        engine = self._engine
        property_terms, resource_terms = engine.dictionary.term_lists()
        table_entries = []
        blobs: List[bytes] = []
        for property_id, flat in engine.main.table_arrays():
            serialize = getattr(flat, "serialize", None)
            if serialize is not None:
                # Compressed backend: store the self-describing block
                # stream verbatim — reload costs O(compressed read) and
                # the encoded blocks survive the round trip unchanged.
                blob = serialize()
                table_entries.append(
                    {
                        "pid": property_id,
                        "n_values": len(flat),
                        "encoding": "crp1",
                        "n_bytes": len(blob),
                        "crc32": zlib.crc32(blob),
                    }
                )
            else:
                blob = _flat_to_le_bytes(flat)
                table_entries.append(
                    {
                        "pid": property_id,
                        "n_values": len(flat),
                        "crc32": zlib.crc32(blob),
                    }
                )
            blobs.append(blob)
        asserted_flat = array("q")
        for subject, property_id, obj in engine.asserted_encoded():
            asserted_flat.append(subject)
            asserted_flat.append(property_id)
            asserted_flat.append(obj)
        # "materialize" records what the stored *tables* represent: a
        # hybrid flush that fell back to the full catalogue stores the
        # complete closure, so its file is a full-mode file.
        hybrid_state = engine.hybrid_state_payload()
        sections: List[dict] = []
        section_blobs: List[bytes] = []
        if hybrid_state is not None:
            blob = json.dumps(
                hybrid_state, separators=(",", ":")
            ).encode("utf-8")
            sections.append(
                {
                    "name": "litemat",
                    "n_bytes": len(blob),
                    "crc32": zlib.crc32(blob),
                }
            )
            section_blobs.append(blob)
        asserted_bytes = _flat_to_le_bytes(asserted_flat)
        body_bytes = (
            sum(len(blob) for blob in blobs)
            + len(asserted_bytes)
            + sum(len(blob) for blob in section_blobs)
        )
        header = {
            "format": "repro-store",
            "version": STORE_FORMAT_VERSION,
            "ruleset": engine.ruleset_name,
            "algorithm": engine.algorithm,
            "materialized": engine.is_materialized,
            "materialize": "hybrid" if hybrid_state is not None else "full",
            "n_triples": engine.n_triples,
            "property_terms": [term_to_record(t) for t in property_terms],
            "resource_terms": [term_to_record(t) for t in resource_terms],
            "tables": table_entries,
            "n_asserted": len(asserted_flat) // 3,
            "asserted_crc32": zlib.crc32(asserted_bytes),
            "payload_bytes": body_bytes,
            "sections": sections,
        }
        payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
        # Crash safety: write everything to a same-directory temp file,
        # force it to disk, then atomically rename over the target.  A
        # fault anywhere in between leaves the previous file untouched.
        target = os.path.abspath(path)
        directory = os.path.dirname(target) or os.curdir
        fd, tmp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(target) + ".", suffix=".tmp"
        )
        written = 0
        try:
            with os.fdopen(fd, "wb") as handle:
                written += handle.write(STORE_MAGIC)
                written += handle.write(struct.pack("<I", len(payload)))
                written += handle.write(payload)
                _fire_fault("persist.write", target)
                for blob in blobs:
                    written += handle.write(blob)
                written += handle.write(asserted_bytes)
                for blob in section_blobs:
                    written += handle.write(blob)
                handle.flush()
                _fire_fault("persist.fsync", target)
                os.fsync(handle.fileno())
            os.replace(tmp_path, target)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        _fsync_directory(directory)
        return written

    @classmethod
    def load(
        cls,
        path: str,
        *,
        config: Optional[StoreConfig] = None,
        **options,
    ) -> "Store":
        """Deserialize a saved store; no inference is re-run.

        ``backend`` / ``algorithm`` / other :class:`StoreConfig`
        options may be overridden (the pair arrays are
        backend-portable); the ruleset and entailment mode default to
        the saved ones (pre-hybrid files are full-mode).  A store saved
        from a custom (unnamed) rule list needs an explicit ``ruleset=``
        override here.

        Loading across modes stays correct, not O(read): a hybrid file
        opened as ``materialize="full"`` holds only the reduced closure,
        so it re-materializes on first read; a full file opened as
        ``materialize="hybrid"`` already holds the complete closure and
        serves it as-is (nothing absorbed until the next flush).
        """
        with open(path, "rb") as handle:
            header, tables, asserted, sections = _read_store_file(handle)
        saved_mode = header.get("materialize", "full")
        overrides = dict(options)
        if config is None:
            if "ruleset" not in overrides:
                overrides["ruleset"] = header["ruleset"]
            if "algorithm" not in overrides:
                overrides["algorithm"] = header["algorithm"]
            if "materialize" not in overrides:
                overrides["materialize"] = saved_mode
            config = StoreConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        if config.ruleset == "custom":
            raise StoreFormatError(
                f"{path!r} was saved from a custom rule list; pass an "
                "explicit ruleset= to Store.load()"
            )
        try:
            dictionary = Dictionary.from_term_lists(
                [term_from_record(r) for r in header["property_terms"]],
                [term_from_record(r) for r in header["resource_terms"]],
            )
        except (KeyError, TypeError, ValueError, IndexError) as error:
            raise StoreCorruptionError(
                f"corrupt dictionary term records: {error!r}",
                section="header",
            ) from error
        store = cls(config=config)
        engine = store._engine
        materialized = bool(header["materialized"])
        if saved_mode == "hybrid" and engine.materialize_mode != "hybrid":
            # The file holds only the reduced closure — a full-mode
            # reader must complete it before serving.
            materialized = False
        engine.restore(
            dictionary,
            asserted,
            tables,
            materialized=materialized,
        )
        if engine.materialize_mode == "hybrid" and materialized:
            payload = sections.get("litemat")
            if payload is not None:
                engine.adopt_hybrid_state(payload)
            else:
                engine.mark_hybrid_fallback(
                    "loaded from a full-mode store file (closure already "
                    "complete; nothing absorbed until the next flush)"
                )
        return store


# ----------------------------------------------------------------------
# Serialization plumbing
# ----------------------------------------------------------------------
def _fsync_directory(directory: str) -> None:
    """Force a directory's entry table to disk (best effort).

    Needed after ``os.replace`` for the rename itself to be durable.
    Some filesystems refuse to fsync a directory fd; that only costs
    durability of the rename, never atomicity, so failures are ignored.
    """
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    except OSError:
        pass
    finally:
        os.close(dir_fd)


def _flat_to_le_bytes(flat) -> bytes:
    """A flat int64 sequence as little-endian bytes (any backend)."""
    if isinstance(flat, array) and flat.typecode == "q":
        if sys.byteorder == "little":
            return flat.tobytes()
        swapped = array("q", flat)
        swapped.byteswap()
        return swapped.tobytes()
    astype = getattr(flat, "astype", None)
    if astype is not None:  # numpy ndarray
        return astype("<i8", copy=False).tobytes()
    fallback = array("q", (int(value) for value in flat))
    return _flat_to_le_bytes(fallback)


def _le_bytes_to_flat(data: bytes) -> array:
    """Little-endian bytes back to a host-order ``array('q')``."""
    flat = array("q")
    flat.frombytes(data)
    if sys.byteorder == "big":
        flat.byteswap()
    return flat


def _crp1_to_flat(blob: bytes, entry: dict):
    """A ``"crp1"`` table blob back to a :class:`CompressedPairs`.

    Deserialization rebuilds the encoded blocks exactly as written —
    a compressed-backend reader adopts them as-is (O(read) reload,
    blocks shared with nothing to re-encode); any other backend's
    ``asarray`` decodes them into its native flat type on restore.
    """
    from ..kernels import numpy_available
    from ..kernels.compressed_backend import (
        CompressedPairs,
        _NumpyCodec,
        _PythonCodec,
    )

    codec = _NumpyCodec() if numpy_available() else _PythonCodec()
    try:
        pairs = CompressedPairs.deserialize(blob, codec)
    except ValueError as error:
        raise StoreFormatError(
            f"corrupt compressed table (pid {entry.get('pid')}): {error}"
        ) from error
    if len(pairs) != entry["n_values"]:
        raise StoreFormatError(
            f"compressed table (pid {entry.get('pid')}) decodes to "
            f"{len(pairs)} values, header says {entry['n_values']}"
        )
    return pairs


#: Header keys every readable store file (v1+) must carry.
_REQUIRED_HEADER_KEYS = (
    "ruleset",
    "algorithm",
    "materialized",
    "property_terms",
    "resource_terms",
    "tables",
    "n_asserted",
)


def _read_blob(handle, n_bytes: int, section: str, offset: int) -> bytes:
    """Read exactly ``n_bytes`` or raise a located truncation error."""
    blob = handle.read(n_bytes)
    if len(blob) != n_bytes:
        raise StoreTruncationError(
            f"truncated store file: {section} declares {n_bytes} bytes "
            f"but only {len(blob)} remain",
            section=section,
            offset=offset,
        )
    return blob


def _check_crc(blob: bytes, entry, key: str, section: str, offset: int):
    """Verify a blob against its header CRC32, when one is present.

    v1–v3 files carry no checksums; their entries simply lack the key
    and are accepted as-is.  Header-only rewrites (version downgrades,
    extra sections) leave blob checksums valid, so presence — not the
    declared version — gates verification.
    """
    expected = entry.get(key) if isinstance(entry, dict) else None
    if expected is None:
        return
    actual = zlib.crc32(blob)
    if actual != expected:
        raise StoreChecksumError(
            f"checksum mismatch in {section}: stored crc32={expected}, "
            f"computed crc32={actual}",
            section=section,
            offset=offset,
        )


def _read_store_file(handle: io.BufferedIOBase):
    """Parse a serialized store:
    (header, [(pid, flat)…], asserted, {section name: payload}).

    Optional header sections the build does not recognize are skipped
    with a warning (their byte length is in the header), so files from
    newer writers degrade gracefully instead of failing to load.

    Every failure surfaces as a :class:`StoreCorruptionError` subclass
    naming the damaged section and its byte offset — raw
    ``struct.error`` / ``json.JSONDecodeError`` / ``KeyError`` from a
    malformed file never escape.
    """
    magic = handle.read(len(STORE_MAGIC))
    if magic != STORE_MAGIC:
        raise StoreMagicError(
            "not a repro store file (bad magic)", section="magic", offset=0
        )
    offset = len(STORE_MAGIC)
    length_bytes = _read_blob(handle, 4, "header length", offset)
    (header_len,) = struct.unpack("<I", length_bytes)
    offset += 4
    header_bytes = _read_blob(handle, header_len, "header", offset)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StoreCorruptionError(
            f"corrupt store header: {error}", section="header", offset=offset
        ) from error
    if not isinstance(header, dict):
        raise StoreCorruptionError(
            "corrupt store header: not a JSON object",
            section="header",
            offset=offset,
        )
    if header.get("version") not in _SUPPORTED_VERSIONS:
        raise StoreVersionError(
            f"unsupported store format version {header.get('version')!r} "
            f"(this build reads versions {_SUPPORTED_VERSIONS})",
            section="header",
            offset=offset,
        )
    for key in _REQUIRED_HEADER_KEYS:
        if key not in header:
            raise StoreCorruptionError(
                f"store header is missing required key {key!r}",
                section="header",
                offset=offset,
            )
    offset += header_len
    try:
        return (header,) + _read_store_body(handle, header, offset)
    except StoreFormatError:
        raise
    except (
        AttributeError,
        KeyError,
        TypeError,
        ValueError,
        struct.error,
    ) as error:
        # A hostile or damaged header can make any body field the
        # wrong type or shape; surface it as corruption, located at
        # least to the body, instead of leaking the raw error.
        raise StoreCorruptionError(
            f"malformed store header field: {error!r}",
            section="header",
            offset=offset,
        ) from error


def _read_store_body(handle, header: dict, offset: int):
    declared = header.get("payload_bytes")
    if declared is not None:
        # Whole-payload truncation check up front, from the total
        # length v4 headers declare.  Extra trailing bytes are fine
        # (a newer writer may append sections this build skips);
        # missing bytes are not.
        position = handle.tell()
        remaining = handle.seek(0, io.SEEK_END) - position
        handle.seek(position)
        if remaining < declared:
            raise StoreTruncationError(
                f"truncated store file: header declares a "
                f"{declared}-byte payload but only {remaining} bytes "
                "remain",
                section="payload",
                offset=offset,
            )
    tables = []
    for index, entry in enumerate(header["tables"]):
        encoding = entry.get("encoding")
        section = f"table pid={entry.get('pid')}"
        if encoding == "crp1":
            n_bytes = int(entry["n_bytes"])
            blob = _read_blob(handle, n_bytes, section, offset)
            _check_crc(blob, entry, "crc32", section, offset)
            tables.append((entry["pid"], _crp1_to_flat(blob, entry)))
        elif encoding is None:
            n_bytes = int(entry["n_values"]) * 8
            if n_bytes < 0:
                raise StoreCorruptionError(
                    f"negative n_values in table entry {index}",
                    section=section,
                    offset=offset,
                )
            blob = _read_blob(handle, n_bytes, section, offset)
            _check_crc(blob, entry, "crc32", section, offset)
            tables.append((entry["pid"], _le_bytes_to_flat(blob)))
        else:
            raise StoreFormatError(
                f"unknown table encoding {encoding!r} (this build reads "
                "raw and 'crp1' tables)"
            )
        offset += n_bytes
    n_bytes = int(header["n_asserted"]) * 3 * 8
    if n_bytes < 0:
        raise StoreCorruptionError(
            "negative n_asserted in store header",
            section="asserted",
            offset=offset,
        )
    blob = _read_blob(handle, n_bytes, "asserted", offset)
    _check_crc(blob, header, "asserted_crc32", "asserted", offset)
    offset += n_bytes
    flat = _le_bytes_to_flat(blob)
    asserted = [
        (flat[i], flat[i + 1], flat[i + 2]) for i in range(0, len(flat), 3)
    ]
    sections: Dict[str, dict] = {}
    for entry in header.get("sections", ()):
        name = entry.get("name")
        n_bytes = int(entry.get("n_bytes", 0))
        section = f"section {name!r}"
        blob = _read_blob(handle, n_bytes, section, offset)
        _check_crc(blob, entry, "crc32", section, offset)
        if name == "litemat":
            try:
                sections[name] = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise StoreCorruptionError(
                    f"corrupt store section {name!r}: {error}",
                    section=section,
                    offset=offset,
                ) from error
        else:
            warnings.warn(
                f"repro store: skipping unknown optional section "
                f"{name!r} ({n_bytes} bytes); the file was probably "
                "written by a newer build",
                stacklevel=4,
            )
        offset += n_bytes
    return tables, asserted, sections


def is_store_file(path: str) -> bool:
    """Whether ``path`` starts with the serialized-store magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False
