"""Reference BGP evaluators for the differential suites.

Two independent answers to "what are the solutions of this BGP":

* :class:`TupleAtATimeQuery` — the evaluator ``repro.query.bgp`` used
  before it went set-at-a-time, kept as the oracle: it orders patterns
  by bound-position count and binds one decoded
  :class:`~repro.rdf.terms.Triple` at a time through per-pattern
  lookups of its own (:class:`PatternLookup`) over the decoded
  ``triples()`` — not through ``query(s, p, o)``, which is the
  evaluator itself.
* :func:`brute_force` — nested loops over the decoded closure, no
  index, no ordering, no ids.

Both return decoded bindings; compare them to the evaluator as
multisets (:func:`multiset`) — solution order is unspecified.
"""

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.query.bgp import TriplePattern, Var
from repro.rdf.terms import Term, Triple

Bindings = Dict[Var, Term]


def resolve(pattern: TriplePattern, bindings: Bindings) -> TriplePattern:
    """Substitute bound variables."""

    def sub(term):
        if isinstance(term, Var):
            return bindings.get(term, term)
        return term

    return TriplePattern(
        sub(pattern.subject), sub(pattern.predicate), sub(pattern.object)
    )


def selectivity(pattern: TriplePattern, bindings: Bindings) -> int:
    """Bound-position count under current bindings (higher = better)."""
    resolved = resolve(pattern, bindings)
    return sum(
        not isinstance(t, Var)
        for t in (resolved.subject, resolved.predicate, resolved.object)
    )


class PatternLookup:
    """The triples matching one ⟨s, p, o⟩ pattern (``None`` a wildcard),
    in ``triples()`` order: one hash index per bound/unbound shape over
    the decoded closure, built on first use."""

    def __init__(self, triples: Iterable[Triple]):
        self.triples = list(triples)
        self._indexes: Dict[Tuple[bool, ...], Dict[tuple, List[Triple]]] = {}

    def __call__(
        self,
        subject: Optional[Term] = None,
        predicate: Optional[Term] = None,
        obj: Optional[Term] = None,
    ) -> List[Triple]:
        pattern = (subject, predicate, obj)
        shape = tuple(term is not None for term in pattern)
        index = self._indexes.get(shape)
        if index is None:
            index = self._indexes[shape] = {}
            for triple in self.triples:
                key = tuple(v for v, bound in zip(triple, shape) if bound)
                index.setdefault(key, []).append(triple)
        return index.get(tuple(t for t in pattern if t is not None), [])


class TupleAtATimeQuery:
    """The tuple-at-a-time evaluator (see module docstring)."""

    def __init__(self, patterns: Iterable[TriplePattern]):
        self.patterns = list(patterns)

    def _match_pattern(
        self, lookup: PatternLookup, pattern: TriplePattern,
        bindings: Bindings,
    ) -> Iterator[Bindings]:
        resolved = resolve(pattern, bindings)
        query_args: List[Optional[Term]] = []
        for term in (resolved.subject, resolved.predicate, resolved.object):
            query_args.append(None if isinstance(term, Var) else term)
        for triple in lookup(*query_args):
            new_bindings = dict(bindings)
            consistent = True
            for position, value in zip(
                (resolved.subject, resolved.predicate, resolved.object),
                (triple.subject, triple.predicate, triple.object),
            ):
                if isinstance(position, Var):
                    bound = new_bindings.get(position)
                    if bound is None:
                        new_bindings[position] = value
                    elif bound != value:
                        consistent = False
                        break
            if consistent:
                yield new_bindings

    def execute(self, engine) -> Iterator[Bindings]:
        """Yield every solution's bindings; ``engine`` is anything with
        a decoded ``triples()`` (Store or Snapshot)."""
        lookup = PatternLookup(engine.triples())

        def recurse(remaining, bindings):
            if not remaining:
                yield bindings
                return
            best_index = max(
                range(len(remaining)),
                key=lambda i: selectivity(remaining[i], bindings),
            )
            pattern = remaining[best_index]
            rest = remaining[:best_index] + remaining[best_index + 1:]
            for extended in self._match_pattern(lookup, pattern, bindings):
                yield from recurse(rest, extended)

        yield from recurse(self.patterns, {})


class TooBig(Exception):
    """:func:`brute_force` was asked for more than its budget."""


def brute_force(
    triples: Iterable[Triple],
    patterns: Iterable[TriplePattern],
    budget: Optional[int] = None,
) -> List[Bindings]:
    """Every solution by nested loops over the decoded closure, in the
    order the patterns are written.  With ``budget``, raises
    :class:`TooBig` before a pass of more than that many comparisons."""
    triples = list(triples)
    solutions: List[Bindings] = [{}]
    for pattern in patterns:
        if budget is not None and len(solutions) * len(triples) > budget:
            raise TooBig
        positions = (pattern.subject, pattern.predicate, pattern.object)
        extended = []
        for bindings in solutions:
            for triple in triples:
                candidate = dict(bindings)
                for position, value in zip(
                    positions,
                    (triple.subject, triple.predicate, triple.object),
                ):
                    if isinstance(position, Var):
                        if candidate.setdefault(position, value) != value:
                            break
                    elif position != value:
                        break
                else:
                    extended.append(candidate)
        solutions = extended
    return solutions


def multiset(solutions: Iterable[Dict]) -> Counter:
    """Order-free form of a solution list (keys may be Var or str)."""
    return Counter(
        frozenset(
            (key.name if isinstance(key, Var) else key, value)
            for key, value in solution.items()
        )
        for solution in solutions
    )
