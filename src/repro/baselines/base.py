"""Shared scaffolding for the baseline (comparator) reasoners.

Each baseline implements the same rulesets as Inferray but with the
evaluation strategy the paper attributes to a competitor system:

* :class:`repro.baselines.naive.NaiveEngine` — Sesame-like pass-based
  re-evaluation over statement lists (also the differential oracle);
* :class:`repro.baselines.hashjoin.HashJoinEngine` — RDFox-like
  semi-naive datalog over hash indexes;
* :class:`repro.baselines.rete.ReteEngine` — OWLIM/Jena-like RETE
  pattern network.

They share loading/encoding (the same dictionary substrate, so decoded
closures are directly comparable) and the datalog rule forms.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

from ..core.engine import MaterializationTimeout
from ..dictionary.encoding import Dictionary, encode_dataset
from ..rdf.terms import Triple
from ..rules.rulesets import ruleset_rule_names
from ..rules.spec import Vocab
from .datalog import DatalogRule, datalog_ruleset

EncodedTriple = Tuple[int, int, int]


@dataclass
class BaselineStats:
    """Outcome of one baseline materialization run."""

    engine: str = ""
    n_input: int = 0
    n_inferred: int = 0
    n_total: int = 0
    iterations: int = 0
    duplicates: int = 0
    total_seconds: float = 0.0
    extra: Dict[str, int] = field(default_factory=dict)


class BaselineReasoner:
    """Base class: loading, encoding and decoded views.  Subclasses
    implement ``materialize(*, timeout_seconds=None) -> BaselineStats``,
    the fixed point in their evaluation strategy."""

    engine_name = "baseline"

    def __init__(
        self,
        ruleset: Union[str, List[str]] = "rdfs-default",
        *,
        tracer=None,
    ):
        if isinstance(ruleset, str):
            names = ruleset_rule_names(ruleset)
            self.ruleset_name = ruleset
        else:
            names = list(ruleset)
            self.ruleset_name = "custom"
        self.dictionary = Dictionary()
        self.vocab = Vocab(self.dictionary)
        self.rules: List[DatalogRule] = datalog_ruleset(names, self.vocab)
        self.facts: Set[EncodedTriple] = set()
        self.tracer = tracer
        self.stats: Optional[BaselineStats] = None

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def load_triples(self, triples: Iterable[Triple]) -> int:
        """Encode and add decoded triples; returns the count supplied."""
        triple_list = list(triples)
        _, encoded = encode_dataset(triple_list, self.dictionary)
        for fact in encoded:
            self._insert_fact(fact)
        return len(triple_list)

    def _insert_fact(self, fact: EncodedTriple) -> bool:
        """Add a fact to the working memory; subclasses extend indexes."""
        if fact in self.facts:
            return False
        self.facts.add(fact)
        return True

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @staticmethod
    def _check_deadline(deadline: Optional[float], engine: str) -> None:
        """Raise :class:`MaterializationTimeout` past the deadline."""
        if deadline is not None and time.perf_counter() > deadline:
            raise MaterializationTimeout(f"{engine}: timeout")

    @property
    def n_triples(self) -> int:
        """Facts currently in working memory."""
        return len(self.facts)

    def triples(self) -> Iterator[Triple]:
        """Decoded iteration over the working memory."""
        decode = self.dictionary.decode_triple
        for fact in self.facts:
            yield decode(fact)

    def as_decoded_set(self) -> Set[Triple]:
        """Decoded snapshot — the cross-engine comparison currency."""
        return set(self.triples())

    def _finish_stats(
        self,
        started: float,
        n_input: int,
        iterations: int,
        duplicates: int,
        **extra: int,
    ) -> BaselineStats:
        stats = BaselineStats(
            engine=self.engine_name,
            n_input=n_input,
            n_total=len(self.facts),
            n_inferred=len(self.facts) - n_input,
            iterations=iterations,
            duplicates=duplicates,
            total_seconds=time.perf_counter() - started,
            extra=dict(extra),
        )
        self.stats = stats
        return stats
