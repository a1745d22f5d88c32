"""Dependency-aware parallel rule scheduler (wave execution).

One :class:`ParallelRuleScheduler` owns the rule list of an engine, the
rule dependency graph derived from it
(:class:`repro.rules.depgraph.RuleDependencyGraph`) and the resulting
**wave** stratification.  Per fixed-point iteration the scheduler fires
the rules wave by wave; within a wave every *task* — a rule firing, or
one key-range shard of a splittable rule — runs concurrently on the
session's executor.

Two executor substrates are available (``mode=``):

* ``"thread"`` — a :class:`~concurrent.futures.ThreadPoolExecutor`.
  The NumPy kernel backend's sort/merge/join primitives release the
  GIL, so waves scale on real cores; the pure-Python backend
  interleaves but stays correct.
* ``"process"`` — a process pool over ``multiprocessing``
  shared-memory segments (:mod:`repro.core.parallel`): the committed
  pair arrays are exported once per version as raw int64 buffers,
  workers rebuild zero-copy read views, and each task's private output
  buffers come back as one segment.  This is the mode that makes
  ``workers=N`` pay off on the pure-Python backend — *when the input
  is big enough to amortize the export and result-marshalling costs*.

**Executor selection** (``mode="auto"``, the default) is a cost model,
not a backend lookup: :meth:`ParallelRuleScheduler.decide` estimates
the materialization's per-iteration work from committed table sizes
plus the catalogue's :meth:`~repro.rules.spec.Rule.estimate_join_input`
hooks and picks ``sequential`` below the measured substrate crossover
(parallel substrates only ever *cost* below it — pool scheduling,
segment memcpy, result pickling), ``thread`` for GIL-releasing backends
above the thread crossover, and ``process`` for the pure-Python backend
above the (higher) process crossover.  Fewer than two usable cores
always means sequential — no substrate can pay for itself on one core.
Crossovers default to values measured by ``benchmarks/
bench_table2_rdfs.py --scale`` and are overridable per scheduler or via
``$REPRO_THREAD_CROSSOVER`` / ``$REPRO_PROCESS_CROSSOVER``;
``$REPRO_PARALLEL_MODE`` still forces a substrate unconditionally.
Every pick is recorded as an :class:`ExecutorDecision` (surfaced on
``MaterializationStats.parallel_decision``).

**Worker pools persist for the scheduler's lifetime**: the first
parallel materialization lazily starts the pool, and subsequent
flushes — including every incremental flush of a long-lived
:class:`~repro.core.store_api.Store` — reuse both the pool and the
exported shared-memory segments (identity-keyed, so re-exports track
the delta).  ``close()`` (or garbage collection of the scheduler, via
``weakref.finalize``) tears pools and segments down.

**Intra-rule work splitting**: a rule whose estimated join input
exceeds ``split_threshold`` pairs (CAX-SCO over the type table is the
motivating case) is split into key-range shards of its merge join
(:meth:`repro.rules.spec.Rule.shard_plan`), each shard a schedulable
task.  Shard outputs are absorbed in shard order before the
per-iteration merge, so splitting never changes the committed bytes.

Equivalence with sequential execution is by construction:

* every task of an iteration reads the same committed ``(main, new)``
  snapshot — committed pair arrays are never mutated in place, and the
  merge happens only at the iteration barrier, after all waves;
* each task emits into a **private** :class:`InferredBuffers`, so
  there is no shared mutable state between concurrently firing tasks;
* the private buffers are absorbed into one combined buffer in
  catalogue rule order (shard order within a rule) and pushed through
  the existing Figure-5 merge, whose sort+dedup makes the committed
  arrays a pure function of the *set* of emitted pairs — closures are
  byte-identical regardless of worker count, executor mode or shard
  count.

Sequential execution is the ``workers=1`` special case of the same
wave loop (no executor is spun up, no splitting), so there is a single
code path to test.
"""

from __future__ import annotations

import os
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..env import env_int
from ..kernels import KernelBackend, resolve_backend
from ..rules.depgraph import RuleDependencyGraph
from ..rules.spec import Rule, RuleContext, Vocab
from ..store.triple_store import InferredBuffers, TripleStore
from .parallel import (
    ProcessModeUnavailable,
    ProcessSession,
    discard_result_segment,
    process_mode_supported,
    resolve_parallel_mode,
    resolve_split_threshold,
    segment_to_buffers,
)

__all__ = [
    "ExecutorDecision",
    "IterationOutcome",
    "ParallelRuleScheduler",
    "resolve_crossover",
    "resolve_parallel_cores",
    "resolve_workers",
]

#: Environment default for the worker count (used when ``workers=None``).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment override for the usable core count the cost model sees
#: (testing/CI: simulate a multicore decision on a one-core box).
PARALLEL_CORES_ENV = "REPRO_PARALLEL_CORES"

#: Environment overrides for the cost-model crossovers (estimated
#: join-input pairs per iteration above which a substrate pays off).
THREAD_CROSSOVER_ENV = "REPRO_THREAD_CROSSOVER"
PROCESS_CROSSOVER_ENV = "REPRO_PROCESS_CROSSOVER"

#: Default crossovers, anchored to the scale benchmark
#: (``benchmarks/bench_table2_rdfs.py --scale``): BSBM-300 and
#: BSBM-10k estimate well below both (their sequential
#: materializations are single-digit milliseconds to ~0.1 s — pool
#: dispatch plus export memcpy dominate any win), while BSBM-100k
#: (~0.9 M committed triples, ~0.9 s sequential) clears the thread
#: crossover.  The process substrate additionally pays a per-iteration
#: snapshot export and per-task result pickling, so its crossover sits
#: roughly an order of magnitude higher.
DEFAULT_THREAD_CROSSOVER = 250_000
DEFAULT_PROCESS_CROSSOVER = 2_000_000

#: Executor handle yielded by :meth:`ParallelRuleScheduler.session`.
Executor = Union[ThreadPoolExecutor, ProcessSession]


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


def resolve_crossover(
    value: Optional[int], *, env: str, default: int
) -> int:
    """Normalize one cost-model crossover (estimated pairs).

    Explicit values are trusted (clamped to >= 0; ``0`` means "always
    profitable"); ``None`` reads ``env``, where non-numeric or negative
    values warn and fall back to ``default``.
    """
    if value is not None:
        return max(0, int(value))
    using = f"using the default ({default})"
    return env_int(
        env,
        default,
        noun="pair count",
        otherwise=using,
        floor=(0, default, f"is negative; {using}"),
    )


@dataclass
class ExecutorDecision:
    """One recorded executor pick for a materialization.

    ``mode`` is the substrate the run actually uses (``sequential`` /
    ``thread`` / ``process``); ``requested`` is what the caller asked
    for (``auto`` unless forced); ``estimated_pairs`` is the cost
    model's per-iteration work estimate (``None`` when no snapshot was
    available to estimate from); ``reason`` says why in one sentence.
    ``fallback`` is filled in when a picked process substrate could not
    start and the run degraded to threads.
    """

    mode: str
    requested: str
    forced: bool
    workers: int
    cores: int
    estimated_pairs: Optional[int]
    thread_crossover: int
    process_crossover: int
    reason: str
    fallback: Optional[str] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (stats / bench reports)."""
        return asdict(self)


class _PoolBox:
    """Holder for the scheduler's lazily-started persistent pools.

    Lives separately from the scheduler so a ``weakref.finalize`` on
    the scheduler can reap the pools without keeping the scheduler
    itself alive (the finalizer closes over the box, not the owner).
    """

    __slots__ = ("thread", "process")

    def __init__(self) -> None:
        self.thread: Optional[ThreadPoolExecutor] = None
        self.process: Optional[ProcessSession] = None


def _close_pool_box(box: _PoolBox) -> None:
    thread, box.thread = box.thread, None
    process, box.process = box.process, None
    if thread is not None:
        thread.shutdown(wait=True)
    if process is not None:
        process.shutdown()


@dataclass
class IterationOutcome:
    """What one scheduled iteration produced (pre-merge).

    ``out`` holds every task's emissions combined in catalogue order
    (shard order within a rule); ``rule_counts`` / ``rule_seconds``
    are per-rule observability (a sharded rule's time is the summed
    busy time of its shards), ``rule_shards`` records the shard count
    of every rule that was split this iteration, and
    ``wave_seconds[k]`` is the wall-clock barrier-to-barrier time of
    wave *k*.
    """

    out: InferredBuffers
    rule_counts: Dict[str, int] = field(default_factory=dict)
    rule_seconds: Dict[str, float] = field(default_factory=dict)
    rule_shards: Dict[str, int] = field(default_factory=dict)
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
        algorithm: str = "auto",
        split_threshold: Optional[int] = None,
        start_method: Optional[str] = None,
        thread_crossover: Optional[int] = None,
        process_crossover: Optional[int] = None,
        cores: Optional[int] = None,
    ):
        self.rules: List[Rule] = list(rules)
        self.workers = resolve_workers(workers)
        self.kernels = (
            kernels
            if kernels is not None
            else resolve_backend("auto", algorithm=algorithm)
        )
        self.algorithm = algorithm
        self.vocab = vocab
        self.split_threshold = resolve_split_threshold(split_threshold)
        self.start_method = start_method
        #: What the caller asked for: ``auto`` / ``thread`` /
        #: ``process`` (parameter beats environment; bad environment
        #: values warn and fall back to ``auto``).
        self.requested_mode = resolve_parallel_mode(mode)
        # A requested substrate is *forced*: it is used regardless of
        # the cost model, and a process substrate that cannot start
        # fails loudly instead of degrading to threads.
        self._mode_forced = self.requested_mode in ("thread", "process")
        self.thread_crossover = resolve_crossover(
            thread_crossover,
            env=THREAD_CROSSOVER_ENV,
            default=DEFAULT_THREAD_CROSSOVER,
        )
        self.process_crossover = resolve_crossover(
            process_crossover,
            env=PROCESS_CROSSOVER_ENV,
            default=DEFAULT_PROCESS_CROSSOVER,
        )
        self.cores = resolve_parallel_cores(cores)
        #: The most recent :meth:`decide` result (observability).
        self.last_decision: Optional[ExecutorDecision] = None
        # Sticky record of why an auto-picked process substrate could
        # not start (unpicklable rules, missing vocab): decide() stops
        # proposing process once it is known to fail.
        self._process_fallback: Optional[str] = None
        #: Mid-wave self-healing events over this scheduler's lifetime:
        #: each count is one broken process session (dead worker,
        #: vanished shared-memory segment) torn down and re-run on the
        #: local substrate without failing the flush.
        self.degraded_total = 0
        self._pools = _PoolBox()
        self._pool_finalizer = weakref.finalize(
            self, _close_pool_box, self._pools
        )
        self.graph = graph if graph is not None else RuleDependencyGraph(
            self.rules
        )
        #: Wave stratification as lists of rule indexes (see depgraph).
        self.waves: List[List[int]] = self.graph.stratify()

    @property
    def n_waves(self) -> int:
        return len(self.waves)

    @property
    def effective_mode(self) -> str:
        """The substrate rule firings run on (best current knowledge).

        ``"sequential"`` when ``workers=1`` (no executor at all); the
        forced substrate when one was requested; the last recorded
        decision's pick otherwise; ``"auto"`` before any decision has
        been made (the cost model picks per materialization).
        """
        if self.workers <= 1:
            return "sequential"
        if self.last_decision is not None:
            return self.last_decision.mode
        if self._mode_forced:
            return self.requested_mode
        return "auto"

    def wave_names(self) -> List[List[str]]:
        """Rule names per wave (observability)."""
        return [[self.rules[i].name for i in wave] for wave in self.waves]

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

        Forced modes (explicit ``parallel_mode=`` or
        ``$REPRO_PARALLEL_MODE``) short-circuit the model.  ``auto``
        estimates the per-iteration work from the committed snapshot
        (``None`` stores mean "unknown", treated as above every
        crossover so standalone callers keep an executor) and refuses
        any parallel substrate below its measured crossover — or when
        fewer than two cores are usable, where no substrate can pay.
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
                process_crossover=self.process_crossover,
                reason=reason,
            )

        if workers <= 1:
            return decision("sequential", "workers=1 (no executor)")
        if self._mode_forced:
            return decision(
                requested,
                f"forced by parallel_mode={requested!r} "
                f"(cost model bypassed)",
            )
        estimated: Optional[int] = None
        if main is not None and new is not None:
            estimated = self.estimate_iteration_work(main, new)
        if self.cores < 2:
            return decision(
                "sequential",
                f"only {self.cores} usable core(s); no parallel "
                f"substrate can pay for its overhead",
                estimated,
            )
        # The compressed backend delegates its window math to an inner
        # substrate; whether threads can scale — and how much extra work
        # the block decode/encode adds per scanned pair — follows the
        # inner backend, so both crossovers double and the GIL-bound
        # classification tracks ``inner_name``.
        backend_name = self.kernels.name
        inner_name = getattr(self.kernels, "inner_name", backend_name)
        compressed = backend_name == "compressed"
        scale = 2 if compressed else 1
        thread_crossover = scale * self.thread_crossover
        process_crossover = scale * self.process_crossover
        gil_bound = (inner_name if compressed else backend_name) == "python"
        if not gil_bound:
            # Vectorized kernels release the GIL: threads scale and
            # skip the export memcpy, so process mode never wins here.
            if estimated is not None and estimated < thread_crossover:
                return decision(
                    "sequential",
                    f"estimated {estimated} pairs/iteration is below "
                    f"the thread crossover ({thread_crossover})"
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
        # GIL-serialized substrate (pure-Python kernels, or compressed
        # blocks decoded by the pure-Python codec): threads cannot help,
        # so the only substrate that can win is processes — above their
        # crossover.
        if estimated is not None and estimated < process_crossover:
            return decision(
                "sequential",
                f"estimated {estimated} pairs/iteration is below the "
                f"process crossover ({process_crossover}); threads "
                f"cannot help the GIL-serialized {backend_name!r} backend",
                estimated,
            )
        if self._process_fallback is not None:
            picked = decision(
                "thread",
                "process substrate previously failed to start; "
                "degrading to threads",
                estimated,
            )
            picked.fallback = self._process_fallback
            return picked
        if not process_mode_supported():
            return decision(
                "thread",
                "process substrate unsupported on this platform; "
                "threads interleave but stay correct",
                estimated,
            )
        return decision(
            "process",
            f"estimated work clears the process crossover on the "
            f"GIL-serialized {backend_name!r} backend",
            estimated,
        )

    # ------------------------------------------------------------------
    # Persistent worker pools (Store-lifetime)
    # ------------------------------------------------------------------
    def _ensure_thread_pool(self) -> ThreadPoolExecutor:
        pool = self._pools.thread
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="repro-rule"
            )
            self._pools.thread = pool
        return pool

    def _ensure_process_session(self) -> ProcessSession:
        session = self._pools.process
        if session is not None and session.broken:
            # A worker died (kill, OOM): the pool is unusable, but a
            # fresh one can be built — drop and recreate.
            self._pools.process = None
            try:
                session.shutdown()
            except Exception as error:  # pragma: no cover - best effort
                # Teardown of a broken pool stays best-effort, but a
                # failure here is exactly the kind of leak (zombie
                # workers, stranded segments) worth diagnosing.
                warnings.warn(
                    f"shutting down the broken process session failed: "
                    f"{error!r}",
                    RuntimeWarning,
                )
            session = None
        if session is None:
            if self.vocab is None:
                raise ProcessModeUnavailable(
                    "process parallel mode needs the scheduler to be "
                    "built with vocab= (the engine does this); "
                    "standalone schedulers run threads"
                )
            session = ProcessSession(
                workers=self.workers,
                rules=self.rules,
                vocab=self.vocab,
                kernels=self.kernels,
                algorithm=self.algorithm,
                start_method=self.start_method,
            )
            self._pools.process = session
        return session

    #: Mid-wave failures that mean "the process substrate broke", not
    #: "the rule is wrong": a worker died (kill -9, OOM — surfaces as
    #: BrokenProcessPool) or a shared-memory segment vanished
    #: (FileNotFoundError from attach, on either side of the pool).
    #: Both are healed by re-running the wave locally; anything else
    #: still fails the flush.
    _HEALABLE_ERRORS = (BrokenProcessPool, FileNotFoundError)

    def _heal_broken_session(
        self, session: ProcessSession, error: BaseException
    ) -> str:
        """Tear down a mid-wave-broken process session; returns why.

        The session's pool and exported segments are released (best
        effort — a broken pool may not shut down cleanly) and the
        scheduler forgets it, so the *next* process decision lazily
        builds a fresh one.  The failure is deliberately not sticky:
        unlike a pool that cannot start at all, a killed worker says
        nothing about whether a new pool would work.
        """
        reason = (
            f"process session broke mid-wave "
            f"({type(error).__name__}: {error}); re-ran the affected "
            f"wave locally"
        )
        self.degraded_total += 1
        session._defunct = True
        if self._pools.process is session:
            self._pools.process = None
        try:
            session.shutdown()
        except Exception as shutdown_error:  # pragma: no cover
            warnings.warn(
                f"shutting down the broken process session failed: "
                f"{shutdown_error!r}",
                RuntimeWarning,
            )
        decision = self.last_decision
        if decision is not None:
            decision.mode = "thread" if self.workers > 1 else "sequential"
            decision.fallback = reason
        warnings.warn(
            f"self-healing parallel flush: {reason}",
            RuntimeWarning,
            stacklevel=3,
        )
        return reason

    @property
    def process_session(self) -> Optional[ProcessSession]:
        """The live persistent process session, if one was started."""
        return self._pools.process

    @property
    def thread_pool(self) -> Optional[ThreadPoolExecutor]:
        """The live persistent thread pool, if one was started."""
        return self._pools.thread

    def close(self) -> None:
        """Shut down persistent pools and release exported segments.

        Idempotent; the scheduler remains usable afterwards (the next
        parallel session lazily starts fresh pools).
        """
        _close_pool_box(self._pools)

    @contextmanager
    def session(
        self, decision: Optional[ExecutorDecision] = None
    ) -> Iterator[Optional[Executor]]:
        """Executor context for one materialization run.

        Yields ``None`` for a sequential decision so the wave loop runs
        inline; otherwise the scheduler's *persistent* thread pool or
        :class:`ProcessSession`, lazily started on first use and left
        running on exit — pools and exported segments live until
        :meth:`close` (incremental flushes reuse them).  ``decision``
        defaults to :meth:`decide` with no snapshot.  An auto-picked
        process substrate that cannot start (unpicklable custom rules,
        missing vocabulary) falls back to threads and records why; a
        forced ``mode="process"`` raises instead.
        """
        if decision is None:
            decision = self.decide()
        self.last_decision = decision
        if decision.mode == "sequential" or self.workers <= 1:
            yield None
            return
        if decision.mode == "process":
            try:
                session = self._ensure_process_session()
            except ProcessModeUnavailable as error:
                if decision.forced:
                    raise
                self._process_fallback = str(error)
                decision.mode = "thread"
                decision.fallback = str(error)
                warnings.warn(
                    f"auto-selected process parallel mode is unavailable "
                    f"({error}); falling back to threads — expect no "
                    f"speedup on the pure-Python backend",
                    RuntimeWarning,
                    stacklevel=3,
                )
            else:
                yield session
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
        executor: Optional[Executor] = None,
    ) -> IterationOutcome:
        """Fire every rule once, wave by wave; returns the outcome.

        All tasks observe the same ``(main, new)`` snapshot; the caller
        merges ``outcome.out`` afterwards (the per-iteration barrier).
        """
        outcome = IterationOutcome(out=InferredBuffers())
        results: List[List[tuple]] = [[] for _ in self.rules]

        # Plan intra-rule splits against the committed snapshot (cheap:
        # table-size lookups).  Only parallel runs split — sequential
        # execution would gain nothing and stays the reference path.
        plans: Dict[int, int] = {}
        if executor is not None and self.split_threshold > 0:
            for index, rule in enumerate(self.rules):
                n_shards = rule.shard_plan(
                    main=main,
                    new=new,
                    vocab=vocab,
                    max_shards=self.workers,
                    threshold=self.split_threshold,
                )
                if n_shards is not None and n_shards >= 2:
                    plans[index] = int(n_shards)

        process_session = (
            executor if isinstance(executor, ProcessSession) else None
        )
        if process_session is not None and getattr(
            process_session, "_defunct", False
        ):
            # The session broke — and was healed — during an earlier
            # iteration of this materialization; the engine still holds
            # the stale executor for the rest of the run, so stay on
            # the local substrate.
            process_session = None
            executor = (
                self._ensure_thread_pool() if self.workers > 1 else None
            )
        if process_session is not None:
            main_manifest, new_manifest = process_session.export(main, new)

        def fire_local(
            rule_index: int, shard: Optional[Tuple[int, int]]
        ) -> tuple:
            rule = self.rules[rule_index]
            buffers = InferredBuffers()
            ctx = RuleContext(
                main=main,
                new=new,
                out=buffers,
                vocab=vocab,
                iteration=iteration,
                theta_prepass_done=theta_prepass_done,
                kernels=kernels,
            )
            started = time.perf_counter()
            if shard is None:
                rule.apply(ctx)
            else:
                rule.apply_shard(ctx, shard)
            return buffers, ctx.stats, time.perf_counter() - started

        for wave in self.waves:
            wave_started = time.perf_counter()
            tasks: List[Tuple[int, Optional[Tuple[int, int]]]] = []
            for index in wave:
                n_shards = plans.get(index)
                if n_shards is None:
                    tasks.append((index, None))
                else:
                    tasks.extend(
                        (index, (k, n_shards)) for k in range(n_shards)
                    )
            if process_session is not None:
                absorbed = 0
                try:
                    futures = [
                        (
                            index,
                            process_session.submit(
                                index,
                                shard,
                                main_manifest,
                                new_manifest,
                                iteration,
                                theta_prepass_done,
                            ),
                        )
                        for index, shard in tasks
                    ]
                    try:
                        for index, future in futures:
                            name, entries, counts, elapsed = future.result()
                            buffers = InferredBuffers()
                            if name is not None:
                                segment_to_buffers(name, entries, buffers)
                            results[index].append((buffers, counts, elapsed))
                            absorbed += 1
                    except BaseException:
                        # A task failed mid-wave: drain the remaining
                        # futures and unlink the (disowned) output
                        # segments of the siblings that completed, or
                        # they leak until reboot.
                        for _, future in futures[absorbed:]:
                            try:
                                name, _, _, _ = future.result()
                            except Exception:
                                continue
                            if name is not None:
                                discard_result_segment(name)
                        raise
                except self._HEALABLE_ERRORS as error:
                    # Self-healing: a dead worker or vanished segment
                    # breaks the session, not the flush.  Tear the
                    # session down, then re-run exactly the tasks of
                    # this wave that were not absorbed — completed
                    # siblings were discarded above, so every task
                    # still contributes exactly once and the committed
                    # closure stays byte-identical.
                    self._heal_broken_session(process_session, error)
                    process_session = None
                    executor = (
                        self._ensure_thread_pool()
                        if self.workers > 1
                        else None
                    )
                    for index, shard in tasks[absorbed:]:
                        results[index].append(fire_local(index, shard))
            elif executor is not None and len(tasks) > 1:
                futures = [
                    (index, executor.submit(fire_local, index, shard))
                    for index, shard in tasks
                ]
                for index, future in futures:
                    results[index].append(future.result())
            else:
                for index, shard in tasks:
                    results[index].append(fire_local(index, shard))
            outcome.wave_seconds.append(time.perf_counter() - wave_started)

        # Deterministic commit order: absorb in catalogue rule order,
        # shard order within a rule.
        for index, rule in enumerate(self.rules):
            fired = results[index]
            if not fired:  # pragma: no cover - every rule fires
                continue
            name = rule.name
            if len(fired) > 1:
                outcome.rule_shards[name] = max(
                    outcome.rule_shards.get(name, 0), len(fired)
                )
            for buffers, counts, elapsed in fired:
                outcome.out.absorb(buffers)
                outcome.rule_seconds[name] = (
                    outcome.rule_seconds.get(name, 0.0) + elapsed
                )
                for rule_name, count in counts.items():
                    outcome.rule_counts[rule_name] = (
                        outcome.rule_counts.get(rule_name, 0) + count
                    )
        return outcome
