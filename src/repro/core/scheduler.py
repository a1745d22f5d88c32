"""Rule scheduler: one iteration fires every rule the delta feeds.

One :class:`RuleScheduler` owns the rule list of an engine.  Per
fixed-point iteration it fires, once over the same ``(main, new)``
pair, every rule whose body reads the delta: a variable predicate
(:data:`~repro.rules.depgraph.ANY`) or a property with a table in
``new`` (:func:`~repro.rules.depgraph.rule_io`).  Every derivation of
a semi-naive leg has a body atom in Δ, so a rule that reads none of Δ's
tables derives nothing new, and skipping it changes no output (VLog's
table-granular skip).  The emissions go back for one merge, as in the
paper's Algorithm 1.

Rules fire inline, in catalogue order.  Every rule of an iteration
reads the same committed snapshot (the merge happens only after the
last rule), so the order decides nothing: the Figure-5 merge's
sort+dedup makes the committed arrays, and every trimmed delta, a pure
function of the *sets* of emitted pairs.  A thread pool that fired an
iteration's rules at once was measured and deleted: it never beat
inline firing by the 10 % it had to (see README, "Rules fire inline").
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence

from ..kernels import KernelBackend
from ..rules.classes import self_fed_rules
from ..rules.depgraph import ANY, rule_io
from ..rules.spec import Rule, RuleContext, Vocab
from ..store.triple_store import InferredBuffers, TripleStore

__all__ = [
    "IterationOutcome",
    "RuleScheduler",
]


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


class RuleScheduler:
    """Fires a rule list once per iteration, skipping what Δ cannot feed."""

    def __init__(self, rules: Sequence[Rule]):
        self.rules: List[Rule] = list(rules)
        #: Rule index → closed schema property, for the rules whose
        #: delta drops their own last output (decided once, by shape).
        self.self_fed: Dict[int, str] = self_fed_rules(self.rules)
        #: Per rule, the vocabulary names of its body's predicates
        #: (``ANY`` for a variable one), which decide whether it fires.
        self.reads: List[FrozenSet[str]] = [
            rule_io(rule).reads for rule in self.rules
        ]
        self._read_names = frozenset().union(*self.reads) - {ANY}

    def run_iteration(
        self,
        *,
        main: TripleStore,
        new: TripleStore,
        vocab: Vocab,
        kernels: KernelBackend,
        iteration: int = 1,
    ) -> IterationOutcome:
        """Fire each rule that reads ``new`` once; returns the outcome.

        A rule fires if its body has a variable predicate or one whose
        table ``new`` holds; fired rules keep catalogue order.  All
        rules observe the same ``(main, new)`` snapshot; the caller
        merges ``outcome.out`` and ``outcome.own`` afterwards (the
        per-iteration barrier).  A self-fed rule whose own rows ``new``
        carries (``new.own_rows``, from the last merge) sees ``new``
        without them, its schema table kept whole.  A rule that raises
        ends the iteration there, with nothing merged.
        """
        outcome = IterationOutcome(out=InferredBuffers())
        fed = {ANY}.union(
            name for name in self._read_names if new.table(vocab[name])
        )
        for index, reads in enumerate(self.reads):
            if fed.isdisjoint(reads):
                continue
            rule = self.rules[index]
            buffers = InferredBuffers()
            rule_new = new
            own_rows = new.own_rows.get(index)
            if own_rows:
                schema = vocab[self.self_fed[index]]
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
            rule.apply(ctx)
            elapsed = time.perf_counter() - started
            if index in self.self_fed:
                outcome.own[index] = buffers
            else:
                outcome.out.absorb(buffers)
            outcome.rule_seconds[rule.name] = (
                outcome.rule_seconds.get(rule.name, 0.0) + elapsed
            )
            for rule_name, count in ctx.stats.items():
                outcome.rule_counts[rule_name] = (
                    outcome.rule_counts.get(rule_name, 0) + count
                )
        return outcome
