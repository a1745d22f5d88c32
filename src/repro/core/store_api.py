"""The unified ``repro.Store`` facade: a serving-grade read/write API.

The paper's pitch is that materialized inference "can be consumed as
explicit data without integrating the inference engine with the runtime
query engine".  This module is the single entry point that makes that
consumption ergonomic:

* **Lazy materialization** — :meth:`Store.add` / :meth:`Store.remove`
  only mark the closure stale; the next read flushes the pending
  mutations, using the semi-naive incremental fixed point for pure
  additions and delete-and-rederive for deletions (the paper rebuilds,
  §1; see :meth:`InferrayEngine.retract_and_rematerialize`).  Callers
  never orchestrate ``load_triples() + materialize()`` themselves.
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

from ..dictionary.encoding import DictionaryError, EncodedTriple
from ..env import env_choice
from ..kernels import KernelBackend
from ..query.bgp import Query, SolutionTable, TriplePattern, match, parse_bgp
from ..rdf.ntriples import parse_file
from ..rdf.terms import Term, Triple
from ..rules.spec import Rule
from .engine import MATERIALIZE_MODES, InferrayEngine, MaterializationStats
# The format's names stay importable from here (tests, repro/__init__).
from .store_file import (  # noqa: F401
    _SUPPORTED_VERSIONS,
    STORE_FORMAT_VERSION,
    STORE_MAGIC,
    StoreChecksumError,
    StoreCorruptionError,
    StoreFormatError,
    StoreMagicError,
    StoreTruncationError,
    StoreVersionError,
    is_store_file,
    read_store,
    write_store,
)

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


@dataclass(frozen=True)
class StoreConfig:
    """Configuration shared by a :class:`Store` and its engine.

    ``timeout_seconds`` bounds every (re)materialization the store
    triggers; the engine raises
    :class:`~repro.core.engine.MaterializationTimeout` past it.
    """

    ruleset: Union[str, List[Rule]] = "rdfs-default"
    backend: Union[str, KernelBackend] = "auto"
    max_iterations: int = 10_000
    timeout_seconds: Optional[float] = None
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
            mode = env_choice("REPRO_MATERIALIZE", "full")
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
            backend=self.backend,
            max_iterations=self.max_iterations,
            materialize_mode=self.resolved_materialize,
        )


#: Forms accepted by the unified query entry point (beyond s/p/o).
QueryInput = Union[str, TriplePattern, Query, Sequence[TriplePattern]]


class _ReadAPI:
    """Shared read-side behaviour of :class:`Store` and :class:`Snapshot`.

    Subclasses provide :meth:`_view` returning the triple of
    ``(TripleStore, Dictionary, asserted TripleColumn)`` the reads
    run against — the live (freshly flushed) state for a store, the
    frozen state for a snapshot.
    """

    # -- cardinality and membership -------------------------------------
    @property
    def n_triples(self) -> int:
        """Number of triples in the closure."""
        tables, _, _ = self._view()
        return tables.n_triples

    def contains(self, triple: Triple) -> bool:
        """Membership test against the closure."""
        tables, dictionary, _ = self._view()
        ids = dictionary.ids_of(triple)
        return ids is not None and ids in tables

    def __contains__(self, triple: Triple) -> bool:
        return self.contains(triple)

    # -- iteration ------------------------------------------------------
    def triples(self) -> Iterator[Triple]:
        """Iterate the whole closure, decoded."""
        tables, dictionary, _ = self._view()
        decode = dictionary.decode_triple
        for encoded in tables.triples():
            yield decode(encoded)

    def encoded_triples(self) -> Iterator[EncodedTriple]:
        """Iterate the closure as raw (s, p, o) id triples."""
        tables, _, _ = self._view()
        return tables.triples()

    def asserted(self) -> List[Triple]:
        """The asserted (explicitly added) triples, decoded, first-seen
        order, duplicates collapsed."""
        _, dictionary, asserted = self._view()
        return list(map(dictionary.decode_triple, dict.fromkeys(asserted)))

    def inferred(self) -> Iterator[Triple]:
        """Only the triples added by inference.

        The diff runs on encoded id triples — a hash probe per closure
        triple into a set of the asserted ids this call builds — and
        only the surviving (inferred) triples are decoded.
        """
        tables, dictionary, asserted = self._view()
        asserted_ids = set(asserted)
        decode = dictionary.decode_triple
        for encoded in tables.triples():
            if encoded not in asserted_ids:
                yield decode(encoded)

    # -- the unified query entry point ----------------------------------
    def query(self, *args, **kwargs):
        """Query the closure; the argument shape selects the form.

        * ``query()`` / ``query(s, p, o)`` / ``query(subject=…, …)`` —
          decoded triple-pattern lookup with ``None`` wildcards; yields
          :class:`Triple` objects (one pattern through the BGP
          evaluator: :func:`repro.query.bgp.match`).
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
        return match(self, *args, **kwargs)

    def _as_query(self, bgp: QueryInput) -> Query:
        if isinstance(bgp, Query):
            return bgp
        if isinstance(bgp, str):
            return Query(parse_bgp(bgp))
        if isinstance(bgp, TriplePattern):
            return Query([bgp])
        return Query(list(bgp))

    def evaluate(self, bgp: QueryInput) -> SolutionTable:
        """All BGP solutions as id columns — nothing decoded yet, so
        ``len()`` is free and a caller decodes only the rows it returns
        (:meth:`SolutionTable.head`, then ``bindings()``)."""
        return self._as_query(bgp).evaluate(self)

    def solutions(self, bgp: QueryInput) -> List[Dict[str, Term]]:
        """All BGP solutions as ``{variable name: Term}`` dicts."""
        return self.evaluate(bgp).bindings()

    def select(
        self, bgp: QueryInput, *variables
    ) -> List[Tuple[Term, ...]]:
        """Distinct projected BGP solutions (SELECT DISTINCT)."""
        return self._as_query(bgp).select(self, *variables)


class Snapshot(_ReadAPI):
    """An immutable, point-in-time view of a store's closure.

    Taking one costs O(tables): the snapshot aliases the store's
    committed pair arrays (copy-on-write — see
    :meth:`repro.store.triple_store.TripleStore.share_view`) and pins
    the engine's immutable asserted :class:`TripleColumn`, uncopied.
    Concurrent readers holding a snapshot keep seeing a consistent
    closure while writers mutate the store.
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
        self._asserted = asserted
        self.ruleset_name = ruleset_name
        #: The store's closure epoch this snapshot was pinned at.
        self.epoch = epoch

    def _view(self):
        return self._tables, self._dictionary, self._asserted


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
    read — incrementally for pure additions, by delete-and-rederive
    when deletions are pending.
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
        #: Monotonic closure version: bumped on every successful flush;
        #: each snapshot carries the one it was pinned at.
        self._epoch = 0
        if triples is not None:
            self.add(triples)

    # ------------------------------------------------------------------
    # Building a store
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
        count toward the return value.  The next flush deletes by DRed
        or a rebuild, as ``stats.deletion`` records.
        """
        if isinstance(triples, Triple):
            triples = [triples]
        distinct = list(dict.fromkeys(triples))
        dequeued = set(distinct).intersection(self._pending_adds)
        self._pending_adds = [
            t for t in self._pending_adds if t not in dequeued
        ]
        scheduled = 0
        for triple, asserted in zip(distinct, self._asserted_mask(distinct)):
            if asserted:
                self._pending_removes.append(triple)
            if asserted or triple in dequeued:
                scheduled += 1
        return scheduled

    def _asserted_mask(self, triples: List[Triple]) -> List[bool]:
        """Per triple, whether the engine's asserted column holds it."""
        ids = list(map(self._engine.dictionary.ids_of, triples))
        return self._engine.asserted_column.contains(ids)

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
        if engine.is_materialized and not adds and not removes:
            return None
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
            else:
                if removes:
                    # Delete-and-rederive, or a rebuild; removes still
                    # asserted after a failure are re-queued below.
                    stats = engine.retract_and_rematerialize(
                        removes, timeout_seconds=timeout
                    )
                    removes = []
                if adds:
                    stats = engine.materialize_incremental(
                        adds, timeout_seconds=timeout
                    )
                    adds = []
        except BaseException:
            self._restore_pending(adds, removes)
            raise
        # A successful flush: its stats, and a new closure epoch.
        self._last_stats = stats
        self._epoch += 1
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
        union = [decode(encoded) for encoded in old.asserted_column]
        union.extend(adds)
        engine = self.config.make_engine()
        engine.load_triples(union)
        self._engine = engine
        return engine

    def _restore_pending(
        self, adds: List[Triple], removes: List[Triple]
    ) -> None:
        """Re-queue the deltas a failed flush had not yet applied.

        Deltas the engine absorbed before failing are filtered out by
        probing its asserted column: an aborted incremental flush has
        already extended ``_asserted`` (and a deletion aborted after its
        swap already dropped the retracted triples), and the engine's
        own staleness flag makes the next flush finish the inference
        over them — re-queueing those would double-apply the delta.
        """
        if adds or removes:
            absorbed = self._asserted_mask(adds + removes)
            removes = [t for t, a in zip(removes, absorbed[len(adds):]) if a]
            adds = [t for t, a in zip(adds, absorbed) if not a]
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
        """Does nothing: a store holds no thread or file between calls.

        Kept, with the context-manager protocol, for callers that still
        close stores (the pipeline ledger does); a closed store stays
        readable and writable.
        """

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
        # The engine's asserted column is immutable (every write
        # replaces it), so reads and snapshots share it uncopied.
        # ``read_view`` is ``main`` in full mode and the hybrid virtual
        # view (stored tables + interval-encoding rewrite) in hybrid
        # mode — every read above this line is mode-agnostic.
        return engine.read_view, engine.dictionary, engine.asserted_column

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
            engine.asserted_column,
            engine.ruleset_name,
            self._epoch,
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> int:
        """Serialize the materialized closure; returns bytes written.

        :meth:`load` restores the closure from the file in O(read),
        without re-running inference.  The write is crash-safe and
        checksummed — a crash at any point leaves either the previous
        file intact or the complete new one, never a torn mix (see
        :func:`repro.core.store_file.write_store`).
        """
        self._refresh()
        return write_store(self._engine, path)

    @classmethod
    def load(
        cls,
        path: str,
        *,
        config: Optional[StoreConfig] = None,
        **options,
    ) -> "Store":
        """Deserialize a saved store; no inference is re-run.

        ``backend`` and other :class:`StoreConfig`
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
        header, dictionary, tables, asserted, sections = read_store(path)
        saved_mode = header.get("materialize", "full")
        if config is None:
            saved = {
                "ruleset": header["ruleset"],
                "materialize": saved_mode,
            }
            config = StoreConfig(**{**saved, **options})
        elif options:
            config = replace(config, **options)
        if config.ruleset == "custom":
            raise StoreFormatError(
                f"{path!r} was saved from a custom rule list; pass an "
                "explicit ruleset= to Store.load()"
            )
        store = cls(config=config)
        engine = store._engine
        materialized = header["materialized"]
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
