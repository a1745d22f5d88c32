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
from ..query.bgp import Query, SolutionTable, TriplePattern, parse_bgp
from ..rdf.graph import Graph
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
    #: Workers for the parallel rule scheduler; ``None`` reads
    #: ``$REPRO_WORKERS`` (default 1), ``0`` means all cores.
    workers: Optional[int] = None
    #: Executor for ``workers > 1``: 'thread' forces the thread pool;
    #: 'auto' lets the scheduler's cost model pick sequential/thread
    #: per flush (see :meth:`ParallelRuleScheduler.decide`); ``None``
    #: reads ``$REPRO_PARALLEL_MODE``.
    parallel_mode: Optional[str] = None
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
            workers=self.workers,
            parallel_mode=self.parallel_mode,
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
        ids = dictionary.pattern_ids(subject, predicate, obj)
        if ids is None:
            return iter(())

        def generate() -> Iterator[Triple]:
            decode = dictionary.decode_triple
            for encoded in tables.query(*ids):
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
            if self._engine.dictionary.ids_of(triple) in engine_asserted:
                self._pending_removes.append(triple)
                hit = True
            if hit:
                scheduled += 1
        return scheduled

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
        union = [decode(encoded) for encoded in old.asserted_encoded()]
        union.extend(adds)
        engine = self.config.make_engine()
        engine.load_triples(union)
        self._engine = engine
        old.close()
        return engine

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
            ids_of = self._engine.dictionary.ids_of
            adds = [t for t in adds if ids_of(t) not in absorbed]
            removes = [t for t in removes if ids_of(t) in absorbed]
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
        """Shut down the store's rule-firing thread pools.

        Parallel flushes keep their thread pool alive between flushes
        so incremental updates never pay a pool cold start; ``close()``
        shuts it down deterministically.  Idempotent, and the store
        stays *readable and writable* — the next parallel flush lazily
        restarts its pool.  Garbage collection would reap the pools too
        (``weakref.finalize``), but long-lived processes (servers,
        notebooks) should close explicitly — or use the store as a
        context manager::

            with Store(triples, workers=4) as store:
                ...  # pools live here
            # pools shut down
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
        # only iterate it (copying would cost O(n_asserted) on every
        # read); snapshot() freezes its own copy.
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
