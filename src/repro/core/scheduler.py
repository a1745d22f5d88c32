"""Dependency-aware parallel rule scheduler (wave execution).

One :class:`ParallelRuleScheduler` owns the rule list of an engine, the
rule dependency graph derived from it
(:class:`repro.rules.depgraph.RuleDependencyGraph`) and the resulting
**wave** stratification.  Per fixed-point iteration the scheduler fires
the rules wave by wave; within a wave every rule fires concurrently on
the scheduler's thread pool, or inline when the run is sequential.

Threads are the one parallel substrate: the NumPy kernel backend's
sort/merge/join primitives release the GIL, so a wave's rules can
overlap on real cores without copying the store anywhere.

**Executor selection** (``mode="auto"``, the default) is a cost model,
not a backend lookup: :meth:`ParallelRuleScheduler.decide` estimates
the materialization's per-iteration work from committed table sizes
plus the catalogue's :meth:`~repro.rules.spec.Rule.estimate_join_input`
hooks and picks ``sequential`` below the measured thread crossover
(the pool only ever *costs* below it), on GIL-bound kernels (pure
Python, or compressed blocks decoded by the pure-Python codec — threads
cannot overlap them) and on fewer than two usable cores; ``thread``
otherwise.  The crossover defaults to a value measured by
``benchmarks/bench_table2_rdfs.py --scale``; ``$REPRO_PARALLEL_MODE``
(or ``mode="thread"``) forces the pool unconditionally.  Every pick is
recorded as an :class:`ExecutorDecision` (surfaced on
``MaterializationStats.parallel_decision``).

**The thread pool persists for the scheduler's lifetime**: the first
parallel materialization lazily starts it, and subsequent flushes —
including every incremental flush of a long-lived
:class:`~repro.core.store_api.Store` — reuse it.  ``close()`` (or
garbage collection of the scheduler, via ``weakref.finalize``) shuts it
down.

Equivalence with sequential execution is by construction:

* every rule of an iteration reads the same committed ``(main, new)``
  snapshot — committed pair arrays are never mutated in place, and the
  merge happens only at the iteration barrier, after all waves;
* each rule emits into a **private** :class:`InferredBuffers`, so
  there is no shared mutable state between concurrently firing rules;
* the private buffers are absorbed into one combined buffer in
  catalogue rule order (a self-fed rule's stays apart, for its next
  trimmed delta) and pushed through the existing Figure-5 merge, whose
  sort+dedup makes the committed arrays — and every trimmed delta — a
  pure function of the *sets* of emitted pairs: closures are
  byte-identical regardless of worker count or executor.

Sequential execution is the ``workers=1`` special case of the same
wave loop (no executor is spun up), so there is a single code path to
test.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence

from ..env import env_choice, env_int
from ..kernels import KernelBackend, resolve_backend
from ..rules.classes import self_fed_rules
from ..rules.depgraph import RuleDependencyGraph
from ..rules.spec import Rule, RuleContext, Vocab
from ..store.triple_store import InferredBuffers, TripleStore

__all__ = [
    "PARALLEL_MODES",
    "ExecutorDecision",
    "IterationOutcome",
    "ParallelRuleScheduler",
    "resolve_parallel_cores",
    "resolve_parallel_mode",
    "resolve_workers",
]

#: Accepted values for the ``parallel_mode`` knobs.
PARALLEL_MODES = ("auto", "thread")

#: Environment default for the execution mode (used when ``mode=None``).
PARALLEL_MODE_ENV = "REPRO_PARALLEL_MODE"

#: Environment default for the worker count (used when ``workers=None``).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment override for the usable core count the cost model sees
#: (testing/CI: simulate a multicore decision on a one-core box).
PARALLEL_CORES_ENV = "REPRO_PARALLEL_CORES"

#: Default cost-model crossover (estimated join-input pairs per
#: iteration above which the thread pool pays off), anchored to the
#: scale benchmark (``benchmarks/bench_table2_rdfs.py --scale``):
#: BSBM-300 and BSBM-10k estimate well below it (their sequential
#: materializations are single-digit milliseconds to ~0.1 s — pool
#: dispatch dominates any win), while BSBM-100k (~0.9 M committed
#: triples, ~0.9 s sequential) clears it.
DEFAULT_THREAD_CROSSOVER = 250_000


def resolve_parallel_mode(mode: Optional[str]) -> str:
    """Normalize a ``parallel_mode`` request.

    ``None`` reads :data:`PARALLEL_MODE_ENV` (defaulting to ``auto``);
    an unknown value from the environment warns and falls back to
    ``auto``, while an unknown value passed explicitly raises.  ``auto``
    is returned unresolved: the scheduler's cost model picks per
    materialization.  The caller applies the mode only when
    ``workers > 1``.
    """
    if mode is None:
        return env_choice(PARALLEL_MODE_ENV, "auto", PARALLEL_MODES)
    mode = mode.lower()
    if mode not in PARALLEL_MODES:
        raise ValueError(
            f"unknown parallel mode {mode!r}; expected one of "
            f"{PARALLEL_MODES}"
        )
    return mode


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a ``workers`` request to a concrete positive count.

    Explicit values are trusted: ``0`` and negatives mean "all cores"
    (``os.cpu_count()``), positives pass through.  ``None`` reads the
    :data:`WORKERS_ENV` environment variable (defaulting to 1 —
    sequential), sanitized (see :mod:`repro.env`): non-numeric values
    warn and fall back to sequential, negatives warn and use all cores,
    and anything above 4× the core count warns and clamps to it.
    """
    cores = os.cpu_count() or 1
    if workers is not None:
        return max(int(workers), 0) or cores
    top = 4 * cores
    value = env_int(
        WORKERS_ENV,
        1,
        noun="worker count",
        otherwise="running sequentially (workers=1)",
        floor=(0, cores, f"is negative; using all {cores} core(s)"),
        ceiling=(
            top,
            top,
            f"would oversubscribe {cores} core(s); clamping to {top} "
            "(4x cores)",
        ),
    )
    return value or cores


def resolve_parallel_cores(cores: Optional[int] = None) -> int:
    """The usable core count the executor cost model plans against.

    Explicit values are trusted (clamped to >= 1); ``None`` reads
    :data:`PARALLEL_CORES_ENV` (sanitized: non-numeric or non-positive
    values warn and fall back to the detected count) and defaults to
    ``os.cpu_count()``.
    """
    if cores is not None:
        return max(1, int(cores))
    detected = os.cpu_count() or 1
    using = f"using the detected {detected}"
    return env_int(
        PARALLEL_CORES_ENV,
        detected,
        noun="core count",
        otherwise=using,
        floor=(1, detected, f"is not positive; {using}"),
    )


@dataclass
class ExecutorDecision:
    """One recorded executor pick for a materialization.

    ``mode`` is the substrate the run uses (``sequential`` /
    ``thread``); ``requested`` is what the caller asked for (``auto``
    unless forced); ``estimated_pairs`` is the cost model's
    per-iteration work estimate (``None`` when no snapshot was
    available to estimate from); ``reason`` says why in one sentence.
    """

    mode: str
    requested: str
    forced: bool
    workers: int
    cores: int
    estimated_pairs: Optional[int]
    thread_crossover: int
    reason: str

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (stats / bench reports)."""
        return asdict(self)


@dataclass
class IterationOutcome:
    """What one scheduled iteration produced (pre-merge).

    ``out`` holds every rule's emissions combined in catalogue order,
    except the self-fed rules' (see :func:`repro.rules.classes.
    self_fed_rules`), whose private buffers stay apart in ``own`` by
    catalogue index for ``TripleStore.merge_inferred(out, own)``;
    ``rule_counts`` / ``rule_seconds`` are per-rule observability, and
    ``wave_seconds[k]`` is the wall-clock barrier-to-barrier time of
    wave *k*.
    """

    out: InferredBuffers
    own: Dict[int, InferredBuffers] = field(default_factory=dict)
    rule_counts: Dict[str, int] = field(default_factory=dict)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    wave_seconds: List[float] = field(default_factory=list)


class ParallelRuleScheduler:
    """Wave-stratified, dependency-aware executor for a rule list."""

    def __init__(
        self,
        rules: Sequence[Rule],
        *,
        workers: Optional[int] = None,
        mode: Optional[str] = None,
        graph: Optional[RuleDependencyGraph] = None,
        vocab: Optional[Vocab] = None,
        kernels: Optional[KernelBackend] = None,
        cores: Optional[int] = None,
    ):
        self.rules: List[Rule] = list(rules)
        self.workers = resolve_workers(workers)
        self.kernels = kernels if kernels is not None else resolve_backend()
        self.vocab = vocab
        #: What the caller asked for: ``auto`` / ``thread`` (parameter
        #: beats environment; bad environment values warn and fall back
        #: to ``auto``).  ``thread`` is *forced*: the pool is used
        #: regardless of the cost model.
        self.requested_mode = resolve_parallel_mode(mode)
        self._mode_forced = self.requested_mode == "thread"
        self.thread_crossover = DEFAULT_THREAD_CROSSOVER
        self.cores = resolve_parallel_cores(cores)
        #: The most recent :meth:`decide` result (observability).
        self.last_decision: Optional[ExecutorDecision] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        self.graph = graph if graph is not None else RuleDependencyGraph(
            self.rules
        )
        #: Wave stratification as lists of rule indexes (see depgraph).
        self.waves: List[List[int]] = self.graph.stratify()
        #: Rule index → closed schema property, for the rules whose
        #: delta drops their own last output (decided once, by shape).
        self.self_fed: Dict[int, str] = self_fed_rules(self.rules)

    @property
    def n_waves(self) -> int:
        return len(self.waves)

    @property
    def effective_mode(self) -> str:
        """The substrate rule firings run on (best current knowledge).

        ``"sequential"`` when ``workers=1`` (no executor at all); the
        last recorded decision's pick otherwise; ``"thread"`` when
        forced; ``"auto"`` before any decision has been made (the cost
        model picks per materialization).
        """
        if self.workers <= 1:
            return "sequential"
        if self.last_decision is not None:
            return self.last_decision.mode
        if self._mode_forced:
            return self.requested_mode
        return "auto"

    # ------------------------------------------------------------------
    # Executor cost model
    # ------------------------------------------------------------------
    def estimate_iteration_work(
        self, main: TripleStore, new: TripleStore
    ) -> int:
        """Estimated pairs one iteration's rule firings will scan.

        Sums the catalogue's :meth:`Rule.estimate_join_input` hooks
        (O(1) table-size lookups each), floored by the snapshot size —
        rules without an estimator still have to scan their inputs, so
        the floor keeps the model honest for custom rules.  The floor
        is the full store on a batch run (``new is main``: everything
        participates) but only the *delta* on a semi-naive incremental
        run — the main-side legs a delta joins against are already
        priced by the per-rule estimators.
        """
        total = 0
        if self.vocab is not None:
            for rule in self.rules:
                estimate = rule.estimate_join_input(
                    main=main, new=new, vocab=self.vocab
                )
                if estimate:
                    total += int(estimate)
        floor = main.n_triples if new is main else new.n_triples
        return max(total, floor)

    def decide(
        self,
        main: Optional[TripleStore] = None,
        new: Optional[TripleStore] = None,
    ) -> ExecutorDecision:
        """Pick the executor substrate for one materialization.

        A forced ``thread`` (explicit ``parallel_mode=`` or
        ``$REPRO_PARALLEL_MODE``) short-circuits the model.  ``auto``
        estimates the per-iteration work from the committed snapshot
        (``None`` stores mean "unknown", treated as above the crossover
        so standalone callers keep an executor) and runs sequentially
        below the measured thread crossover, on GIL-bound kernels, or
        when fewer than two cores are usable.
        """
        requested = self.requested_mode
        workers = self.workers

        def decision(mode: str, reason: str, estimated=None) -> ExecutorDecision:
            return ExecutorDecision(
                mode=mode,
                requested=requested,
                forced=self._mode_forced,
                workers=workers,
                cores=self.cores,
                estimated_pairs=estimated,
                thread_crossover=self.thread_crossover,
                reason=reason,
            )

        if workers <= 1:
            return decision("sequential", "workers=1 (no executor)")
        if self._mode_forced:
            return decision(
                "thread",
                f"forced by parallel_mode={requested!r} "
                f"(cost model bypassed)",
            )
        estimated: Optional[int] = None
        if main is not None and new is not None:
            estimated = self.estimate_iteration_work(main, new)
        if self.cores < 2:
            return decision(
                "sequential",
                f"only {self.cores} usable core(s); the thread pool "
                f"cannot pay for its overhead",
                estimated,
            )
        # The compressed backend delegates its window math to an inner
        # substrate; whether threads can scale — and how much extra work
        # the block decode/encode adds per scanned pair — follows the
        # inner backend, so the crossover doubles and the GIL-bound
        # classification tracks ``inner_name``.
        backend_name = self.kernels.name
        compressed = backend_name == "compressed"
        inner_name = getattr(self.kernels, "inner_name", backend_name)
        if (inner_name if compressed else backend_name) == "python":
            return decision(
                "sequential",
                f"the {backend_name!r} backend's kernels hold the GIL "
                f"(pure-Python loops), so threads cannot overlap them",
                estimated,
            )
        crossover = (2 if compressed else 1) * self.thread_crossover
        if estimated is not None and estimated < crossover:
            return decision(
                "sequential",
                f"estimated {estimated} pairs/iteration is below "
                f"the thread crossover ({crossover})"
                + (
                    " (doubled for compressed-block decode cost)"
                    if compressed else ""
                ),
                estimated,
            )
        return decision(
            "thread",
            f"estimated work clears the thread crossover on the "
            f"GIL-releasing {backend_name!r} backend"
            + (
                f" (decompressed windows run on {inner_name!r})"
                if compressed else ""
            ),
            estimated,
        )

    # ------------------------------------------------------------------
    # Persistent thread pool (Store-lifetime)
    # ------------------------------------------------------------------
    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-rule"
            )
            # Reaps the pool if the scheduler is dropped unclosed; the
            # callback holds the pool, not the scheduler.
            self._pool_finalizer = weakref.finalize(
                self, self._pool.shutdown, wait=True
            )
        return self._pool

    @property
    def thread_pool(self) -> Optional[ThreadPoolExecutor]:
        """The live persistent thread pool, if one was started."""
        return self._pool

    def close(self) -> None:
        """Shut down the persistent thread pool.

        Idempotent; the scheduler remains usable afterwards (the next
        parallel session lazily starts a fresh pool).
        """
        self._pool = None
        if self._pool_finalizer is not None:
            self._pool_finalizer()
            self._pool_finalizer = None

    @contextmanager
    def session(
        self, decision: Optional[ExecutorDecision] = None
    ) -> Iterator[Optional[ThreadPoolExecutor]]:
        """Executor context for one materialization run.

        Yields ``None`` for a sequential decision so the wave loop runs
        inline; otherwise the scheduler's *persistent* thread pool,
        lazily started on first use and left running on exit — it lives
        until :meth:`close` (incremental flushes reuse it).
        ``decision`` defaults to :meth:`decide` with no snapshot.
        """
        if decision is None:
            decision = self.decide()
        self.last_decision = decision
        if decision.mode == "sequential" or self.workers <= 1:
            yield None
            return
        yield self._ensure_thread_pool()

    # ------------------------------------------------------------------
    # One fixed-point iteration
    # ------------------------------------------------------------------
    def run_iteration(
        self,
        *,
        main: TripleStore,
        new: TripleStore,
        vocab: Vocab,
        kernels: KernelBackend,
        iteration: int = 1,
        theta_prepass_done: bool = False,
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> IterationOutcome:
        """Fire every rule once, wave by wave; returns the outcome.

        All rules observe the same ``(main, new)`` snapshot; the caller
        merges ``outcome.out`` and ``outcome.own`` afterwards (the
        per-iteration barrier).  A self-fed rule whose own rows ``new``
        carries (``new.own_rows``, from the last merge) sees ``new``
        without them, its schema table kept whole.
        A rule that raises fails the iteration only once every rule of
        its wave has finished, so no firing outlives the call; the
        failure re-raised is the first in catalogue order.
        """
        outcome = IterationOutcome(out=InferredBuffers())
        results: List[Optional[tuple]] = [None] * len(self.rules)

        def fire(rule_index: int) -> tuple:
            buffers = InferredBuffers()
            rule_new = new
            own_rows = new.own_rows.get(rule_index)
            if own_rows:
                schema = vocab[self.self_fed[rule_index]]
                rule_new = new.without(own_rows, keep=schema)
            ctx = RuleContext(
                main=main,
                new=rule_new,
                out=buffers,
                vocab=vocab,
                iteration=iteration,
                theta_prepass_done=theta_prepass_done,
                kernels=kernels,
            )
            started = time.perf_counter()
            self.rules[rule_index].apply(ctx)
            return buffers, ctx.stats, time.perf_counter() - started

        for wave in self.waves:
            wave_started = time.perf_counter()
            if executor is not None and len(wave) > 1:
                futures = [executor.submit(fire, index) for index in wave]
                wait(futures)
                for index, future in zip(wave, futures):
                    results[index] = future.result()
            else:
                for index in wave:
                    results[index] = fire(index)
            outcome.wave_seconds.append(time.perf_counter() - wave_started)

        # Deterministic commit order: absorb in catalogue rule order.
        for index, (rule, (buffers, counts, elapsed)) in enumerate(
            zip(self.rules, results)
        ):
            if index in self.self_fed:
                outcome.own[index] = buffers
            else:
                outcome.out.absorb(buffers)
            outcome.rule_seconds[rule.name] = (
                outcome.rule_seconds.get(rule.name, 0.0) + elapsed
            )
            for rule_name, count in counts.items():
                outcome.rule_counts[rule_name] = (
                    outcome.rule_counts.get(rule_name, 0) + count
                )
        return outcome
