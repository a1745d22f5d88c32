"""Output checks: closure digests, the datalog oracle, brute-force BGP answers.

Three independent witnesses keep the benchmark from timing a wrong
program: configurations are compared with each other by closure size and
a sha256 over the sorted encoded triples; at 1/25 of the run's scale the
closure must equal what ``repro.baselines``' hash-join datalog engine
derives (an engine that shares no code path with the one under test);
and each query template's answers must agree between the evaluator, the
HTTP endpoint and a nested-loop match over the decoded closure.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.baselines import HashJoinEngine
from repro.query.bgp import TriplePattern, Var, parse_bgp
from repro.rdf.terms import Term, Triple

Digest = Tuple[int, str]


def closure_digest(tables) -> Digest:
    """(size, sha256) over the encoded closure sorted on (p, s, o).

    ``tables`` is anything with ``table_arrays()``: committed pair arrays
    are already sorted-unique on (s, o) and come in ascending property
    order, so hashing them in turn hashes the sorted triple list without
    building it.
    """
    sha = hashlib.sha256()
    size = 0
    for property_id, flat in tables.table_arrays():
        raw = flat.tobytes()  # ndarray and CompressedPairs both: raw int64
        sha.update(struct.pack("<qq", property_id, len(raw) // 16))
        sha.update(raw)
        size += len(raw) // 16
    return size, sha.hexdigest()


def encoded_digest(encoded: Iterable[Tuple[int, int, int]]) -> Digest:
    """The same digest from an unordered stream of (s, p, o) id triples.

    This is the path for views that have no committed arrays to hash —
    the hybrid store answers part of its closure from an interval
    encoding, so its triples only exist as an iterator.
    """
    by_property: Dict[int, List[Tuple[int, int]]] = {}
    for subject, property_id, obj in encoded:
        by_property.setdefault(property_id, []).append((subject, obj))
    sha = hashlib.sha256()
    size = 0
    for property_id in sorted(by_property):
        pairs = sorted(set(by_property[property_id]))
        sha.update(struct.pack("<qq", property_id, len(pairs)))
        sha.update(
            struct.pack(f"<{2 * len(pairs)}q", *(v for p in pairs for v in p))
        )
        size += len(pairs)
    return size, sha.hexdigest()


def oracle_closure(triples: Sequence[Triple], ruleset: str) -> frozenset:
    """The decoded closure according to the hash-join datalog baseline."""
    oracle = HashJoinEngine(ruleset)
    oracle.load_triples(triples)
    oracle.materialize()
    return frozenset(oracle.as_decoded_set())


# ----------------------------------------------------------------------
# Query answers
# ----------------------------------------------------------------------
def _n3_row(solution: Dict[str, object]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted(
        (name, term if isinstance(term, str) else term.n3())
        for name, term in solution.items()
    ))


def answer_digest(solutions: Iterable[Dict[str, object]]) -> Digest:
    """(count, sha256) over a solution multiset, order-independent.

    Terms are compared in N-Triples syntax, which is what the HTTP
    endpoint renders, so in-process and served answers digest alike.
    """
    rows = sorted(_n3_row(solution) for solution in solutions)
    sha = hashlib.sha256()
    for row in rows:
        sha.update(repr(row).encode("utf-8"))
    return len(rows), sha.hexdigest()


def _match(pattern: TriplePattern, bindings: Dict[str, Term], triple: Triple
           ) -> Optional[Dict[str, Term]]:
    out = dict(bindings)
    for position, value in zip(
        (pattern.subject, pattern.predicate, pattern.object),
        (triple.subject, triple.predicate, triple.object),
    ):
        if isinstance(position, Var):
            if out.setdefault(position.name, value) != value:
                return None
        elif position != value:
            return None
    return out


class BruteForce:
    """BGP answers by nested loops over a decoded closure, in text order.

    No index beyond a per-predicate bucket and no reordering: slow, and
    shares nothing with ``repro.query`` but the pattern parser.
    """

    def __init__(self, closure: Iterable[Triple]):
        self._everything = list(closure)
        self._by_predicate: Dict[Term, List[Triple]] = {}
        for triple in self._everything:
            self._by_predicate.setdefault(triple.predicate, []).append(triple)

    def solutions(self, bgp_text: str) -> List[Dict[str, Term]]:
        partial: List[Dict[str, Term]] = [{}]
        for pattern in parse_bgp(bgp_text):
            candidates = (
                self._everything
                if isinstance(pattern.predicate, Var)
                else self._by_predicate.get(pattern.predicate, [])
            )
            partial = [
                merged
                for bindings in partial
                for triple in candidates
                for merged in (_match(pattern, bindings, triple),)
                if merged is not None
            ]
        return partial
