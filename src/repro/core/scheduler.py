"""Parallel rule scheduler: one iteration fires every rule the delta feeds.

One :class:`ParallelRuleScheduler` owns the rule list of an engine.
Per fixed-point iteration it fires, once over the same ``(main, new)``
pair, every rule whose body reads the delta: a variable predicate
(:data:`~repro.rules.depgraph.ANY`) or a property with a table in
``new`` (:func:`~repro.rules.depgraph.rule_io`).  Every derivation of
a semi-naive leg has a body atom in Δ, so a rule that reads none of Δ's
tables derives nothing new, and skipping it changes no output (VLog's
table-granular skip).  The emissions go back for one merge, as in the
paper's Algorithm 1.  Ordering rules inside an iteration decides
nothing (every rule reads the same snapshot), so there is no dependency
order here: ``workers == 1`` fires the rules inline, in catalogue
order, and ``workers > 1`` submits them all at once to the scheduler's
thread pool.  Threads are the one parallel substrate:
the NumPy kernel backend's sort/merge/join primitives release the GIL,
so rules can overlap on real cores without copying the store anywhere.

**The thread pool persists for the scheduler's lifetime**: the first
parallel materialization lazily starts it, and subsequent flushes —
including every incremental flush of a long-lived
:class:`~repro.core.store_api.Store` — reuse it.  ``close()`` (or
garbage collection of the scheduler, via ``weakref.finalize``) shuts it
down.

Equivalence with sequential execution is by construction:

* every rule of an iteration reads the same committed ``(main, new)``
  snapshot — committed pair arrays are never mutated in place, and the
  merge happens only at the iteration barrier, after every rule;
* each rule emits into a **private** :class:`InferredBuffers`, so
  there is no shared mutable state between concurrently firing rules;
* the private buffers are absorbed into one combined buffer in
  catalogue rule order (a self-fed rule's stays apart, for its next
  trimmed delta) and pushed through the existing Figure-5 merge, whose
  sort+dedup makes the committed arrays — and every trimmed delta — a
  pure function of the *sets* of emitted pairs: closures are
  byte-identical regardless of worker count.
"""

from __future__ import annotations

import os
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence

from ..env import env_int
from ..kernels import KernelBackend
from ..rules.classes import self_fed_rules
from ..rules.depgraph import ANY, rule_io
from ..rules.spec import Rule, RuleContext, Vocab
from ..store.triple_store import InferredBuffers, TripleStore

__all__ = [
    "IterationOutcome",
    "ParallelRuleScheduler",
    "resolve_workers",
]

#: Environment default for the worker count (used when ``workers=None``).
WORKERS_ENV = "REPRO_WORKERS"


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


@dataclass
class IterationOutcome:
    """What one scheduled iteration produced (pre-merge).

    ``out`` holds every rule's emissions combined in catalogue order,
    except the self-fed rules' (see :func:`repro.rules.classes.
    self_fed_rules`), whose private buffers stay apart in ``own`` by
    catalogue index for ``TripleStore.merge_inferred(out, own)``;
    ``rule_counts`` / ``rule_seconds`` are per-rule observability.
    """

    out: InferredBuffers
    own: Dict[int, InferredBuffers] = field(default_factory=dict)
    rule_counts: Dict[str, int] = field(default_factory=dict)
    rule_seconds: Dict[str, float] = field(default_factory=dict)


class ParallelRuleScheduler:
    """Fires a rule list once per iteration, inline or on a thread pool."""

    def __init__(
        self, rules: Sequence[Rule], *, workers: Optional[int] = None
    ):
        self.rules: List[Rule] = list(rules)
        self.workers = resolve_workers(workers)
        self._pool: Optional[ThreadPoolExecutor] = None
        self._pool_finalizer: Optional[weakref.finalize] = None
        #: Rule index → closed schema property, for the rules whose
        #: delta drops their own last output (decided once, by shape).
        self.self_fed: Dict[int, str] = self_fed_rules(self.rules)
        #: Per rule, the vocabulary names of its body's predicates
        #: (``ANY`` for a variable one), which decide whether it fires.
        self.reads: List[FrozenSet[str]] = [
            rule_io(rule).reads for rule in self.rules
        ]
        self._read_names = frozenset().union(*self.reads) - {ANY}

    @property
    def mode(self) -> str:
        """The substrate rule firings run on: ``"sequential"`` for
        ``workers == 1`` (no executor at all), ``"thread"`` otherwise."""
        return "thread" if self.workers > 1 else "sequential"

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
    def session(self) -> Iterator[Optional[ThreadPoolExecutor]]:
        """Executor context for one materialization run.

        Yields ``None`` at ``workers == 1`` so the rules fire inline;
        otherwise the scheduler's *persistent* thread pool, lazily
        started on first use and left running on exit — it lives until
        :meth:`close` (incremental flushes reuse it).
        """
        if self.workers <= 1:
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
        executor: Optional[ThreadPoolExecutor] = None,
    ) -> IterationOutcome:
        """Fire each rule that reads ``new`` once; returns the outcome.

        A rule fires if its body has a variable predicate or one whose
        table ``new`` holds; fired rules keep catalogue order.  All
        rules observe the same ``(main, new)`` snapshot; the caller
        merges ``outcome.out`` and ``outcome.own`` afterwards (the
        per-iteration barrier).  A self-fed rule whose own rows ``new``
        carries (``new.own_rows``, from the last merge) sees ``new``
        without them, its schema table kept whole.
        A rule that raises fails the iteration only once every other
        rule has finished, so no firing outlives the call; the
        failure re-raised is the first in catalogue order.
        """
        outcome = IterationOutcome(out=InferredBuffers())

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
                kernels=kernels,
            )
            started = time.perf_counter()
            self.rules[rule_index].apply(ctx)
            return buffers, ctx.stats, time.perf_counter() - started

        fed = {ANY}.union(
            name for name in self._read_names if new.table(vocab[name])
        )
        indexes = [
            index
            for index, reads in enumerate(self.reads)
            if not fed.isdisjoint(reads)
        ]
        if executor is None:
            results = [fire(index) for index in indexes]
        else:
            futures = [executor.submit(fire, index) for index in indexes]
            wait(futures)
            results = [future.result() for future in futures]

        # Deterministic commit order: absorb in catalogue rule order.
        for index, (buffers, counts, elapsed) in zip(indexes, results):
            rule = self.rules[index]
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
