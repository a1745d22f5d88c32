"""InferrayEngine: the paper's Algorithm 1 over the vertical store.

The engine ties everything together:

1. **Load** — triples are dictionary-encoded (dense split numbering,
   with property promotion) and bulk-loaded into the ``main`` store,
   sorted and deduplicated per property.
2. **Transitivity closures** (line 2) — every θ-rule of the active
   ruleset closes its target properties with the Nuutila/interval
   machinery *before* the fixed point: subClassOf/subPropertyOf for the
   RDFS flavours, plus every ``owl:TransitiveProperty`` and the
   symmetric-transitive ``owl:sameAs`` for RDFS-Plus.  A closure holds
   its input edges, so the sorted closure is installed as the table.
3. **Fixed point** (lines 3–8) — rules fire in bulk semi-naively
   (Δ × main and main × Δ; one leg while Δ is main), the inferred
   buffers are sorted/deduplicated and merged per property (Figure 5),
   producing the next ``new`` delta, until an iteration derives nothing.
4. **Deletion** — delete-and-rederive over the same executors and
   fixed point (:meth:`InferrayEngine.retract_and_rematerialize`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Union

from ..dictionary.encoding import Dictionary, encode_columns, encode_dataset
from ..dictionary.triple_column import TripleColumn
from ..kernels import KernelBackend, resolve_backend
from ..litemat.encoder import HierarchyEncoding
from ..litemat.planner import HybridPlan, plan_hybrid
from ..litemat.view import HybridTripleView
from ..query.bgp import match
from ..rdf.ntriples import read_columns
from ..rdf.terms import Term, Triple
from ..rules.rulesets import get_ruleset
from ..rules.derivation import derivable
from ..rules.spec import Rule, RuleContext, Vocab
from ..store.triple_store import InferredBuffers, TripleStore
from .scheduler import ParallelRuleScheduler, resolve_workers

#: Materialization strategies (see ``InferrayEngine`` / ``repro.Store``).
MATERIALIZE_MODES = ("full", "hybrid")

#: A deletion overdeleting more than this share of the stored triples
#: rebuilds instead: measured, a rebuild is faster past it.
DRED_MAX_OVERDELETE_SHARE = 0.025


class FixedPointError(RuntimeError):
    """Raised when the fixed point exceeds the iteration safety bound."""


class MaterializationTimeout(RuntimeError):
    """Raised when a materialization exceeds its wall-clock budget.

    All engines (Inferray and the baselines) raise this cooperatively so
    the benchmark harness can report timeouts the way the paper's tables
    mark them ('–').
    """


class IterationRecord(NamedTuple):
    """Where one fixed-point iteration's work went."""

    #: Raw pairs the rules emitted (Σ of this iteration's rule counts).
    derived: int
    #: Pairs the Figure-5 merge found genuinely new (the next delta).
    new: int
    merge_seconds: float


@dataclass
class MaterializationStats:
    """Outcome of one run of the engine's fixed-point driver.

    Batch and incremental flushes, full and hybrid, fill every field
    the same way; ``InferrayEngine.stats`` is always the record of the
    last run that did work (the already-materialized no-op returns a
    zero-work record without replacing it).
    """

    #: Triples stored when rule work began: everything asserted so far
    #: is in — for an incremental flush that includes the delta it adds.
    n_input: int = 0
    #: Triples the rules derived (closure prepass included):
    #: ``n_total - n_input``.  Asserted triples never count.
    n_inferred: int = 0
    n_total: int = 0
    #: Fixed-point iterations this run fired.
    iterations: int = 0
    closure_pairs: int = 0
    closure_seconds: float = 0.0
    inference_seconds: float = 0.0
    merge_seconds: float = 0.0
    total_seconds: float = 0.0
    per_rule: Dict[str, int] = field(default_factory=dict)
    #: One :class:`IterationRecord` per fixed-point iteration, in order.
    per_iteration: List[IterationRecord] = field(default_factory=list)
    #: Workers the rule scheduler ran with (1 = sequential).
    workers: int = 1
    #: Executor substrate the run used: 'sequential' or 'thread'
    #: (recorded from the resolved decision, not the request).
    parallel_mode: str = "sequential"
    #: The scheduler's recorded executor pick for this run (see
    #: :class:`repro.core.scheduler.ExecutorDecision`), as a plain dict.
    parallel_decision: Optional[dict] = None
    #: Waves in the scheduler's dependency stratification.
    n_waves: int = 0
    #: Wall-clock seconds per wave index, summed across iterations.
    per_wave_seconds: List[float] = field(default_factory=list)
    #: Per-rule firing seconds, summed across iterations.
    per_rule_seconds: Dict[str, float] = field(default_factory=dict)
    #: Summed per-rule busy time (the sequential-equivalent cost).
    rule_busy_seconds: float = 0.0
    #: Effective rule-firing concurrency: summed per-rule busy time over
    #: wall-clock inference time.  ~1.0 when sequential; approaches the
    #: worker count under ideal scaling.
    parallel_speedup: float = 1.0
    #: Materialization strategy this run used ('full' or 'hybrid').
    materialize_mode: str = "full"
    #: Rules the hierarchy encoding absorbed (hybrid runs; empty when
    #: full or when the hybrid run fell back to the full catalogue).
    absorbed_rules: List[str] = field(default_factory=list)
    #: Why a hybrid run fell back to the full catalogue (None if it
    #: didn't).
    hybrid_fallback: Optional[str] = None
    #: A deletion's ``route`` ('dred' or 'rebuild'), ``reason`` (for a
    #: rebuild) and counts ``removed``, ``overdeleted``, ``rederived``.
    deletion: Optional[dict] = None

    @property
    def triples_per_second(self) -> float:
        """Inferred-triple throughput over the whole materialization."""
        if self.total_seconds <= 0:
            return 0.0
        return self.n_inferred / self.total_seconds


class InferrayEngine:
    """Forward-chaining materialization with sort-merge-join inference.

    Parameters
    ----------
    ruleset:
        A ruleset name ('rho-df', 'rdfs-default', 'rdfs-full',
        'rdfs-plus', 'rdfs-plus-full') or an explicit list of
        :class:`repro.rules.Rule` instances.
    backend:
        Kernel backend the store and rule executors run on: 'auto'
        (NumPy unless ``$REPRO_KERNELS`` names another), 'python',
        'numpy', 'compressed', or a :class:`repro.kernels.KernelBackend`
        instance.
    max_iterations:
        Safety bound on fixed-point iterations.
    workers:
        Workers for the dependency-aware rule scheduler
        (:mod:`repro.core.scheduler`).  ``None`` (default) reads
        ``$REPRO_WORKERS`` (falling back to 1 — sequential), ``0``
        means all cores.
    parallel_mode:
        Executor for ``workers > 1``: ``'thread'`` (always the thread
        pool) or ``'auto'`` (the scheduler's cost model picks
        sequential or thread per flush from the estimated work and the
        kernel backend; see :meth:`ParallelRuleScheduler.decide`).
        ``None`` (default) reads ``$REPRO_PARALLEL_MODE``, falling
        back to ``'auto'``.
    materialize_mode:
        ``'full'`` (default) materializes the whole closure;
        ``'hybrid'`` runs the LiteMat-style reduced catalogue — rules
        the hierarchy encoding absorbs (see :mod:`repro.litemat`)
        never fire, and :attr:`read_view` composes their virtual
        answers back in at read time.  The engine's ``triples``
        accessor reads the *stored* tables; ``query`` and the
        ``repro.Store`` facade read :attr:`read_view`.
    """

    def __init__(
        self,
        ruleset: Union[str, List[Rule]] = "rdfs-default",
        *,
        backend: Union[str, KernelBackend] = "auto",
        max_iterations: int = 10_000,
        workers: Optional[int] = None,
        parallel_mode: Optional[str] = None,
        materialize_mode: str = "full",
    ):
        if isinstance(ruleset, str):
            self.rules: List[Rule] = get_ruleset(ruleset)
            self.ruleset_name = ruleset
        else:
            self.rules = list(ruleset)
            self.ruleset_name = "custom"
        self.dictionary = Dictionary()
        self.vocab = Vocab(self.dictionary)
        self.kernels = resolve_backend(backend)
        self.workers = resolve_workers(workers)

        def scheduler_for(rules: List[Rule]) -> ParallelRuleScheduler:
            return ParallelRuleScheduler(
                rules,
                workers=self.workers,
                mode=parallel_mode,
                vocab=self.vocab,
                kernels=self.kernels,
            )

        self.scheduler = scheduler_for(self.rules)
        self.main = TripleStore(backend=self.kernels)
        self.max_iterations = max_iterations
        self.stats: Optional[MaterializationStats] = None
        self._materialized = False
        self._asserted = TripleColumn()
        #: ``MaterializationStats.deletion`` of the last deletion.
        self.last_deletion: Optional[dict] = None

        if materialize_mode not in MATERIALIZE_MODES:
            raise ValueError(
                f"unknown materialize mode {materialize_mode!r}; "
                f"expected one of {MATERIALIZE_MODES}"
            )
        self.materialize_mode = materialize_mode
        self._hybrid_plan: Optional[HybridPlan] = None
        self._reduced_scheduler: Optional[ParallelRuleScheduler] = None
        self._hybrid_encoding: Optional[HierarchyEncoding] = None
        self._hybrid_view: Optional[HybridTripleView] = None
        self._hybrid_fallback_reason: Optional[str] = None
        if materialize_mode == "hybrid":
            self._hybrid_plan = plan_hybrid(self.rules, self.ruleset_name)
            if self._hybrid_plan.absorbed:
                self._reduced_scheduler = scheduler_for(
                    self._hybrid_plan.reduced_rules
                )

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_triples(self, triples: Iterable[Triple]) -> int:
        """Encode and bulk-load decoded triples; returns the count added."""
        triple_list = list(triples)
        _, encoded = encode_dataset(triple_list, self.dictionary)
        added = TripleColumn.from_triples(encoded)
        self._asserted = self._asserted + added
        self._add_to_main(added.by_property())
        return len(triple_list)

    def load_file(self, path: str) -> int:
        """Parse and load an N-Triples file; returns the count added.

        The file goes from interned terms to per-property id columns
        without a ``Triple`` per statement, and gets the ids
        :meth:`load_triples` would give the same statements.  A
        malformed line, or a term that would have to leave the
        resource numbering for the property one, raises with nothing
        loaded.
        """
        _, pairs, added = encode_columns(
            *read_columns(path), dictionary=self.dictionary
        )
        self._asserted = self._asserted + added
        self._add_to_main(pairs.items())
        return len(added)

    def _add_to_main(self, groups) -> None:
        """Bulk-load ``(property id, flat pairs)`` groups into ``main``."""
        for property_id, flat_pairs in groups:
            self.main.add_pairs(property_id, flat_pairs)
        self._materialized = False

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def materialize(
        self, *, timeout_seconds: Optional[float] = None
    ) -> MaterializationStats:
        """Run the closure pre-pass and the fixed point; returns stats.

        Idempotent re-entry is a cheap no-op: when the store is already
        materialized and nothing was loaded since, the fixed point is
        skipped entirely and a zero-work stats record is returned
        (``self.stats`` keeps the stats of the last *real* run).

        With ``materialize_mode='hybrid'`` the run fires the reduced
        catalogue, falling back to the full one when the planner
        absorbed nothing or a schema guard trips.

        Raises :class:`MaterializationTimeout` when ``timeout_seconds``
        elapses (checked between iterations).
        """
        if self._materialized:
            stats = self._blank_stats(self.scheduler)
            stats.n_total = stats.n_input
            stats.absorbed_rules = list(self.absorbed_rule_names)
            return stats
        return self._flush(time.perf_counter(), timeout_seconds)

    def _blank_stats(
        self, scheduler: ParallelRuleScheduler
    ) -> MaterializationStats:
        """A zero-work record labelled with the engine's current state."""
        return MaterializationStats(
            n_input=self.main.n_triples,
            workers=self.workers,
            parallel_mode=scheduler.effective_mode,
            n_waves=scheduler.n_waves,
            materialize_mode=self.materialize_mode,
            hybrid_fallback=self._hybrid_fallback_reason,
        )

    def materialize_incremental(
        self,
        triples: Iterable[Triple],
        *,
        timeout_seconds: Optional[float] = None,
    ) -> MaterializationStats:
        """Add triples to an already-materialized store, semi-naively.

        Unlike ``load_triples() + materialize()`` — which re-fires every
        rule with ``new = main`` — this seeds the fixed point with only
        the genuinely-new delta, so an addition touching one property
        re-derives only what that delta can produce.  θ-rules handle the
        delta by re-closing the affected properties (paper §4.1: closure
        inputs never shrink, so re-closing is sound and idempotent).

        The engine must already be materialized; the result is
        identical to batch materialization of the union (tested).
        """
        if not self._materialized:
            raise RuntimeError(
                "materialize_incremental requires a prior materialize()"
            )
        started = time.perf_counter()
        # The closure is incomplete until the delta fixed point lands:
        # clear the flag so an abort (timeout) leaves the engine marked
        # stale and the next materialize() recovers instead of serving
        # a partially-updated closure as complete.
        self._materialized = False
        _, encoded = encode_dataset(list(triples), self.dictionary)
        self._asserted = self._asserted + TripleColumn.from_triples(encoded)
        seed = InferredBuffers()
        for subject, property_id, obj in encoded:
            seed.emit(property_id, subject, obj)
        delta = self.main.merge_inferred(seed)
        return self._flush(started, timeout_seconds, delta)

    def _flush(
        self,
        started: float,
        timeout_seconds: Optional[float],
        delta: Optional[TripleStore] = None,
    ) -> MaterializationStats:
        """Set the driver up for this engine's mode and run it.

        ``delta`` is what an incremental flush just merged into
        ``main`` (``None`` for a batch run over everything loaded).
        """
        self.mark_hybrid_fallback(None)
        # Line 3: the first iteration sees everything as new.
        scheduler, prepass = self.scheduler, (self._theta_prepass,)
        new, iteration = self.main, 0
        if self.materialize_mode == "hybrid":
            # Semi-naive seeding cannot catch what a *schema* delta does
            # to the encoding (new subClassOf edges change every
            # absorbed answer) nor re-run the hierarchy pre-pass, so
            # hybrid additions re-fire the whole hybrid flush.  That is
            # still the reduced catalogue over the already-closed store
            # plus the delta — prepass rows are monotone entailments,
            # so the re-run is idempotent — and it re-checks the guards
            # against the updated schema.  A fallback runs whole too:
            # the store may hold only a reduced closure to complete.
            self._hybrid_fallback_reason = self._hybrid_refusal()
            if self._hybrid_fallback_reason is None:
                scheduler = self._reduced_scheduler
                prepass = (self._hybrid_prepass, self._theta_prepass)
        elif delta is not None:
            # Start past the θ pre-pass skip: deltas must re-close.
            prepass, new, iteration = (), delta, 1
        return self._fixed_point(
            scheduler, prepass, new, iteration, started, timeout_seconds
        )

    def _fixed_point(
        self,
        scheduler: ParallelRuleScheduler,
        prepass,
        new: TripleStore,
        iteration: int,
        started: float,
        timeout_seconds: Optional[float],
    ) -> MaterializationStats:
        """Algorithm 1 — the engine's only copy of it.

        ``scheduler`` owns the rule catalogue to fire.  Each ``prepass``
        step is called as ``step(rules, out)``, reads the whole store
        and returns the closure pairs it accounts for (line 2).  The θ
        step installs each closed table outright (a closure contains
        its input edges, so it *is* the new table; nothing is merged);
        other steps emit rows into ``out``, which is merged once every
        step has run.  ``new``
        is the first iteration's delta and ``iteration`` the count the
        loop starts after: 0 for a run whose pre-pass closed the θ
        properties (θ rules skip iteration 1), 1 for a delta run.
        Every iteration leaves an :class:`IterationRecord` in
        ``stats.per_iteration``.

        The engine is unmaterialized on entry and stays so on any
        exception, so the next :meth:`materialize` redoes the flush
        from what is stored.
        """
        deadline = (
            None if timeout_seconds is None else started + timeout_seconds
        )
        first_iteration = iteration
        stats = self._blank_stats(scheduler)

        # Line 2: transitivity closures on the dedicated layout.
        closure_started = time.perf_counter()
        prepass_buffers = InferredBuffers()
        for step in prepass:
            stats.closure_pairs += step(scheduler.rules, prepass_buffers)
        if prepass_buffers:
            self.main.merge_inferred(prepass_buffers)
        stats.closure_seconds = time.perf_counter() - closure_started

        # Lines 4-8: fixed point, rules fired through the wave scheduler.
        # The executor pick is decided from the committed snapshot —
        # after the delta merge and the pre-pass, so the estimate sees
        # the real (main, new) shapes and a small increment on a huge
        # store still picks the cheapest substrate for the delta's
        # work.
        decision = scheduler.decide(self.main, new)
        with scheduler.session(decision) as executor:
            while new:
                iteration += 1
                if iteration > self.max_iterations:
                    raise FixedPointError(
                        f"no fixed point after {self.max_iterations} "
                        f"iterations (workers={self.workers}, "
                        f"mode={scheduler.effective_mode})"
                    )
                if deadline is not None and time.perf_counter() > deadline:
                    raise MaterializationTimeout(
                        f"inferray: timeout after {timeout_seconds}s "
                        f"(iteration {iteration}, workers={self.workers}, "
                        f"mode={scheduler.effective_mode})"
                    )
                infer_started = time.perf_counter()
                outcome = scheduler.run_iteration(
                    main=self.main,
                    new=new,
                    vocab=self.vocab,
                    kernels=self.kernels,
                    iteration=iteration,
                    # Read only by θ rules, only at iteration 1 — which
                    # only a run that pre-passed its catalogue reaches.
                    theta_prepass_done=True,
                    executor=executor,
                )
                stats.inference_seconds += (
                    time.perf_counter() - infer_started
                )
                self._accumulate_outcome(stats, outcome)

                merge_started = time.perf_counter()
                new = self.main.merge_inferred(outcome.out, outcome.own)
                merge_seconds = time.perf_counter() - merge_started
                stats.merge_seconds += merge_seconds
                stats.per_iteration.append(
                    IterationRecord(
                        derived=sum(outcome.rule_counts.values()),
                        new=new.n_triples,
                        merge_seconds=merge_seconds,
                    )
                )

        stats.parallel_mode = decision.mode
        stats.parallel_decision = decision.as_dict()
        stats.iterations = iteration - first_iteration
        stats.n_total = self.main.n_triples
        stats.n_inferred = stats.n_total - stats.n_input
        self._finalize_parallel_stats(stats)
        if self._hybrid_encoding is not None:
            # The hybrid pre-pass encoded the hierarchies: reads compose
            # the absorbed rules' answers back in through this view.
            self._activate_hybrid_view()
        stats.absorbed_rules = list(self.absorbed_rule_names)
        stats.total_seconds = time.perf_counter() - started
        self.stats = stats
        self._materialized = True
        return stats

    def _theta_prepass(self, rules, out: InferredBuffers) -> int:
        """Close every θ rule's properties over the loaded data.

        A closure contains its input edges, so each closed property's
        sorted pairs replace its table: no probe against, or merge with,
        the edges it closed.  ``out`` is left to the other steps.
        """
        closed = InferredBuffers()
        ctx = RuleContext(
            main=self.main,
            new=self.main,
            out=closed,
            vocab=self.vocab,
            kernels=self.kernels,
        )
        pairs = sum(rule.prepass(ctx) for rule in rules)
        for property_id, chunks in closed.chunk_items():
            self.main.load_table(
                property_id, self.kernels.concat(chunks), presorted=False
            )
        return pairs

    # ------------------------------------------------------------------
    # Hybrid (LiteMat-style) flush
    # ------------------------------------------------------------------
    def _hybrid_refusal(self) -> Optional[str]:
        """Why this flush cannot run the reduced catalogue, or None.

        Either the planner absorbed nothing, or the stored schema
        forbids absorbing.  The encoding treats ``rdf:type``,
        ``rdfs:subClassOf/subPropertyOf`` and ``rdfs:domain/range`` as
        fixed vocabulary.  Data that redefines that vocabulary — a
        sub-property of ``rdfs:subClassOf``, a domain declared on
        ``rdf:type`` — would route inference *into* the absorbed tables,
        so such inputs run the full catalogue (correct, just not reduced).
        """
        if self._reduced_scheduler is None:
            return f"ruleset {self.ruleset_name!r} has no absorbable rules"
        vocab = self.vocab
        reserved = {
            vocab.type,
            vocab.subClassOf,
            vocab.subPropertyOf,
            vocab.domain,
            vocab.range,
        }
        table = self.main.table(vocab.subPropertyOf)
        if table is not None:
            for subject, obj in table.iter_pairs():
                if subject in reserved or obj in reserved:
                    return (
                        "schema-of-schema input: a subPropertyOf row "
                        "names a reserved RDFS property"
                    )
        for attr in ("domain", "range"):
            table = self.main.table(vocab[attr])
            if table is not None:
                for prop, _ in table.iter_pairs():
                    if prop in reserved:
                        return (
                            f"{attr} declared on a reserved RDFS "
                            "property"
                        )
        return None

    def _hybrid_prepass(self, rules, out: InferredBuffers) -> int:
        """Line 2 for the absorbed rules: encode, then type the members
        of sub-property tables under domain/range.

        The interval encoding of the stored subClassOf/subPropertyOf
        graphs stands in for the absorbed θ closures (its reach pairs
        are the closure pairs reported); θ rules still in the reduced
        catalogue close their properties as usual.

        The one interaction between absorbed and materialized rules the
        planner exempts: with PRP-SPO1 (or SCM-DOM2/RNG2) absorbed,
        PRP-DOM/PRP-RNG never see the data that only *virtually* flows
        into a declared property — so this schema-sized pass emits
        ``type(s, c)`` for every subject (object) of each strict
        sub-property of a domain- (range-) carrying property.  The
        virtual ``rdf:type`` expansion supplies the superclass closure
        of these rows, completing the decomposition of the full-mode
        firings.  Rows are genuine entailments, so re-running the pass
        on incremental flushes is idempotent (monotone).
        """
        subclass = self.main.table(self.vocab.subClassOf)
        subprop = self.main.table(self.vocab.subPropertyOf)
        encoding = self._hybrid_encoding = HierarchyEncoding(
            subclass.iter_pairs() if subclass is not None else (),
            subprop.iter_pairs() if subprop is not None else (),
        )
        plan = self._hybrid_plan
        vocab = self.vocab
        kernels = self.kernels
        jobs = []
        if plan.copy_data or plan.expand_domain_properties:
            jobs.append((vocab.domain, True))
        if plan.copy_data or plan.expand_range_properties:
            jobs.append((vocab.range, False))
        for schema_pid, use_subjects in jobs:
            schema = self.main.table(schema_pid)
            if schema is None:
                continue
            for prop, cls in schema.iter_pairs():
                for sub in encoding.subproperties(prop):
                    if sub == prop:
                        continue  # cycles: own table is handled live
                    table = self.main.table(sub)
                    if table is None or not table.n_pairs:
                        continue
                    members = kernels.distinct_evens(
                        table.pairs if use_subjects else table.os_pairs()
                    )
                    if len(members):
                        out.extend(
                            vocab.type,
                            kernels.pair_with_constant(members, cls),
                        )
        return (
            encoding.classes_up.n_reach_pairs()
            + encoding.props_up.n_reach_pairs()
        )

    def _activate_hybrid_view(self) -> None:
        """Serve reads through the current encoding (fresh per flush)."""
        self._hybrid_view = HybridTripleView(
            self.main,
            self._hybrid_encoding,
            self._hybrid_plan,
            self.vocab,
            self.kernels,
        )

    @property
    def read_view(self):
        """What entailment-complete reads should consume: the hybrid
        virtual view when one is active, else ``main``.

        A pending (unflushed) load makes the view stale, so it only
        serves while the engine is materialized — callers flush first,
        exactly as they must for ``main`` itself.
        """
        if self._hybrid_view is not None and self._materialized:
            return self._hybrid_view
        return self.main

    @property
    def absorbed_rule_names(self) -> tuple:
        """Names of rules the *active* encoding absorbs (empty unless a
        hybrid view is live)."""
        if self._hybrid_view is None or self._hybrid_plan is None:
            return ()
        return self._hybrid_plan.absorbed

    @property
    def hybrid_fallback_reason(self) -> Optional[str]:
        """Why the last hybrid flush ran the full catalogue (or None)."""
        return self._hybrid_fallback_reason

    def mark_hybrid_fallback(self, reason: Optional[str]) -> None:
        """Drop the hybrid view; ``reason`` says why reads are served
        from ``main`` instead (None: no flush has decided yet)."""
        self._hybrid_view = None
        self._hybrid_encoding = None
        self._hybrid_fallback_reason = reason

    def hybrid_state_payload(self) -> Optional[dict]:
        """JSON-serializable hybrid state for persistence, or None."""
        if self._hybrid_view is None or self._hybrid_encoding is None:
            return None
        return {
            "absorbed": list(self._hybrid_plan.absorbed),
            "encoding": self._hybrid_encoding.to_payload(),
        }

    def adopt_hybrid_state(self, payload: dict) -> bool:
        """Re-activate a persisted hybrid view without re-materializing.

        Returns False (and marks the engine unmaterialized, so the next
        read re-flushes) when the persisted split does not match this
        engine's plan — e.g. a file saved by a different catalogue.
        """
        if self.materialize_mode != "hybrid" or self._hybrid_plan is None:
            return False
        absorbed = tuple(payload.get("absorbed", ()))
        if absorbed != self._hybrid_plan.absorbed:
            self._materialized = False
            return False
        self._hybrid_encoding = HierarchyEncoding.from_payload(
            payload["encoding"]
        )
        self._hybrid_fallback_reason = None
        self._activate_hybrid_view()
        return True

    @property
    def parallel_mode(self) -> str:
        """The scheduler's effective executor substrate: 'sequential',
        'thread', or 'auto' before the first cost-model decision has
        been made."""
        return self.scheduler.effective_mode

    def close(self) -> None:
        """Shut down the schedulers' persistent thread pools.

        Idempotent, and the engine stays usable — the next parallel
        materialization lazily restarts its pool.  Dropping the last
        reference to an unclosed engine also reaps the pools (the
        scheduler registers a ``weakref.finalize``), but explicit close
        is deterministic and is what ``Store.close()`` calls.
        """
        for scheduler in self.schedulers:
            scheduler.close()

    @property
    def schedulers(self) -> List[ParallelRuleScheduler]:
        """The full-catalogue scheduler and, in hybrid mode with rules
        absorbed, the reduced one."""
        reduced = self._reduced_scheduler
        return [self.scheduler] + ([reduced] if reduced is not None else [])

    def _accumulate_outcome(self, stats, outcome) -> None:
        """Fold one scheduled iteration's observability into ``stats``."""
        for name, count in outcome.rule_counts.items():
            stats.per_rule[name] = stats.per_rule.get(name, 0) + count
        for name, seconds in outcome.rule_seconds.items():
            stats.per_rule_seconds[name] = (
                stats.per_rule_seconds.get(name, 0.0) + seconds
            )
        for index, seconds in enumerate(outcome.wave_seconds):
            if index >= len(stats.per_wave_seconds):
                stats.per_wave_seconds.append(0.0)
            stats.per_wave_seconds[index] += seconds

    @staticmethod
    def _finalize_parallel_stats(stats) -> None:
        """Derive the busy-time and effective-speedup summary fields."""
        stats.rule_busy_seconds = sum(stats.per_rule_seconds.values())
        if stats.inference_seconds > 0 and stats.rule_busy_seconds > 0:
            stats.parallel_speedup = (
                stats.rule_busy_seconds / stats.inference_seconds
            )

    def retract(self, triples: Iterable[Triple]) -> None:
        """Remove asserted triples, leaving the store unmaterialized.

        The store is rebuilt from the surviving asserted triples;
        triples never asserted (inferred or unknown) are ignored, and
        when that is all of them nothing is touched — the closure, if
        there is one, stays complete.
        """
        surviving = self._asserted.without(map(self.dictionary.ids_of, triples))
        if len(surviving) != len(self._asserted):
            self._rebuild_from(surviving)

    def _rebuild_from(self, surviving: TripleColumn) -> None:
        self._asserted = surviving
        self.main = TripleStore(backend=self.kernels)
        self._add_to_main(surviving.by_property())

    def retract_and_rematerialize(
        self,
        triples: Iterable[Triple],
        *,
        timeout_seconds: Optional[float] = None,
    ) -> MaterializationStats:
        """Remove asserted triples and bring the closure up to date.

        The paper rebuilds (§1); this overdeletes what the removed
        triples derive over the old closure, removes that minus what is
        still asserted, rederives what has a one-step derivation left
        (:func:`repro.rules.derivation.derivable`) and re-closes from
        there.  It rebuilds (:meth:`retract`, :meth:`materialize`) in
        hybrid mode, with no closure yet, for a rule with no
        description, or an overdeletion that reaches a property a θ rule
        closes whole or passes :data:`DRED_MAX_OVERDELETE_SHARE` of the
        store; ``stats.deletion`` says which ran and why.  The asserted
        set and closure are swapped as the re-close starts: a failure
        before leaves the engine as it was, one after leaves it stale
        for :meth:`materialize` to complete.
        """
        started = time.perf_counter()
        probes = list(map(self.dictionary.ids_of, triples))
        found = self._asserted.contains(probes)
        victims = {probe for probe, hit in zip(probes, found) if hit}
        if not victims:
            return self.materialize(timeout_seconds=timeout_seconds)
        surviving = self._asserted.without(victims)
        record = dict(route="dred", reason=self._dred_refusal(),
                      removed=len(victims), overdeleted=0, rederived=0)
        if record["reason"] is None:
            doomed, record["reason"] = self._overdelete(
                victims, None if timeout_seconds is None
                else started + timeout_seconds
            )
            record["overdeleted"] = doomed.n_triples
        if record["reason"] is None:
            delta = self._rederive(doomed, surviving, record)
            stats = self._fixed_point(
                self.scheduler, (), delta, 1, started, timeout_seconds
            )
        else:
            record["route"] = "rebuild"
            self._rebuild_from(surviving)
            stats = self._flush(started, timeout_seconds)
        stats.deletion = self.last_deletion = record
        return stats

    def _dred_refusal(self) -> Optional[str]:
        if self.materialize_mode == "hybrid":
            return "hybrid mode: flushes re-fire whole"
        if not self._materialized:
            return "no closure to maintain"
        for rule in self.rules:
            if not rule.descriptions:
                return f"rule {rule.name!r} has no description"
        return None

    def _overdelete(self, victims, deadline):
        """``(D, None)``, or ``(D so far, why DRed stops)``: an
        incremental flush's semi-naive legs over the closed ``main``,
        whose outputs are all stored; what is new to D is the next Δ."""
        doomed, seed = TripleStore(backend=self.kernels), InferredBuffers()
        for subject, property_id, obj in victims:
            seed.emit(property_id, subject, obj)
        delta, iteration = doomed.merge_inferred(seed), 1
        limit = DRED_MAX_OVERDELETE_SHARE * self.main.n_triples
        scheduler = self.scheduler
        ctx = RuleContext(main=self.main, new=delta, out=InferredBuffers(),
                          vocab=self.vocab, kernels=self.kernels)
        with scheduler.session(scheduler.decide(self.main, delta)) as executor:
            while delta:
                ctx.new = delta
                for rule in scheduler.rules:
                    if rule.recloses(ctx):
                        return doomed, (f"{rule.name} re-closes a "
                                        "property the deletion reaches")
                if doomed.n_triples > limit:
                    return doomed, ("overdeleted past the DRed share: "
                                    f"{doomed.n_triples} > {limit:g}")
                if deadline is not None and time.perf_counter() > deadline:
                    raise MaterializationTimeout(
                        "inferray: timeout while overdeleting"
                    )
                iteration += 1
                outcome = scheduler.run_iteration(
                    main=self.main, new=delta, vocab=self.vocab,
                    kernels=self.kernels, iteration=iteration,
                    theta_prepass_done=True, executor=executor,
                )
                delta = doomed.merge_inferred(outcome.out, outcome.own)
        return doomed, None

    def _rederive(self, doomed: TripleStore, surviving: TripleColumn,
                  record: dict) -> TripleStore:
        """Swap in ``surviving`` and ``main`` minus what of ``doomed`` is
        not asserted, plus what of that is rederived; returns the
        rederived triples, the re-close's Δ."""
        kernels, rows = self.kernels, list(doomed.triples())
        asserted = TripleStore(backend=kernels)
        asserted.add_encoded(
            row for row, hit in zip(rows, surviving.contains(rows)) if hit
        )
        reduced = self.main.share_view()
        removed = TripleStore(backend=kernels)
        for property_id, pairs in doomed.table_arrays():
            if asserted.table(property_id) is not None:
                pairs = kernels.difference(
                    pairs, asserted.table(property_id).pairs
                )
            if len(pairs):
                removed.load_table(property_id, pairs)
                reduced.load_table(property_id, kernels.difference(
                    self.main.table(property_id).pairs, pairs
                ))
        rederived = reduced.merge_inferred(
            derivable(self.rules, self.vocab, removed, reduced)
        )
        record["rederived"] = rederived.n_triples
        self._asserted, self.main = surviving, reduced
        self._materialized = False
        return rederived

    @property
    def n_asserted(self) -> int:
        """Number of asserted (loaded) triples, duplicates included."""
        return len(self._asserted)

    @property
    def is_materialized(self) -> bool:
        """Whether the store currently holds a complete closure."""
        return self._materialized

    @property
    def asserted_column(self) -> TripleColumn:
        """The asserted (s, p, o) id triples, in load order: immutable,
        replaced (never mutated) by every load or retraction."""
        return self._asserted

    def restore(
        self,
        dictionary: Dictionary,
        asserted: TripleColumn,
        tables: Iterable[tuple],
        *,
        materialized: bool = True,
    ) -> None:
        """Adopt deserialized state (the Store persistence path).

        ``tables`` yields ``(property_id, flat_pairs)`` with each flat
        array already sorted-unique on ⟨s, o⟩ — they are installed
        without re-sorting, which is what makes reloading a saved
        closure O(read).  The previous store contents are discarded;
        ``self.stats`` is cleared (no materialization ran here).
        """
        self.dictionary = dictionary
        self.vocab = Vocab(dictionary)
        for scheduler in self.schedulers:
            scheduler.vocab = self.vocab
        self.main = TripleStore(backend=self.kernels)
        for property_id, flat_pairs in tables:
            self.main.load_table(property_id, flat_pairs, presorted=True)
        self._asserted = asserted
        self._materialized = bool(materialized)
        self.mark_hybrid_fallback(None)
        self.stats = None

    def memory_bytes(self) -> int:
        """Bytes held by the store's pair arrays and caches."""
        return self.main.memory_bytes()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @property
    def n_triples(self) -> int:
        """Triples currently stored (input + materialized)."""
        return self.main.n_triples

    def triples(self) -> Iterator[Triple]:
        """Iterate every stored triple, decoded."""
        decode = self.dictionary.decode_triple
        for encoded in self.main.triples():
            yield decode(encoded)

    def query(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> Iterator[Triple]:
        """Decoded pattern query; ``None`` positions are wildcards.

        One pattern through the BGP evaluator
        (:func:`repro.query.bgp.match`) over :attr:`read_view`, so in
        hybrid mode absorbed (virtual) entailments match like stored
        ones.  Unknown terms (never loaded nor derived) match nothing.
        """
        return match(self, subject, predicate, obj)
