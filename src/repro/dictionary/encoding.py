"""Dictionary encoding with the paper's split dense numbering (§5.1).

Inference never mints new terms — only new *combinations* of existing
subjects, properties and objects.  Inferray exploits this by encoding all
terms once, at load time, into dense 64-bit ids:

* the numbering space ``[0, 2**64)`` is split at ``2**32``;
* **properties** are numbered *downward* from ``2**32``
  (first property → ``2**32``, second → ``2**32 - 1``, …);
* **non-property resources** are numbered *upward* from ``2**32 + 1``.

Both halves stay dense, which keeps the entropy of the values low — the
property the paper's counting / MSDA-radix sorts exploit (Table 1; in
this reproduction they run only in ``benchmarks/paper/sorting``, each
kernel backend having its own pair sort).  A simple *index translation* (``2**32 - property_id``) maps a
property id onto the index of its property table in the store.

The paper assumes predicates are identifiable at load time.  Terms that
occupy property positions *indirectly* (subjects/objects of
``rdfs:subPropertyOf``, ``owl:equivalentProperty``, ``owl:inverseOf``,
subjects of ``rdfs:domain`` / ``rdfs:range``, and subjects typed as a
property class) are promoted to the property space by the two-pass
:func:`encode_dataset` helper, so that rules whose *output predicate* is a
variable (e.g. EQ-REP-P, PRP-SPO1) always find a property id.

The hybrid entailment mode (:mod:`repro.litemat`) layers a second,
derived numbering on top of this one: the interval encoder remaps the
dictionary ids that occur in ``rdfs:subClassOf`` /
``rdfs:subPropertyOf`` positions onto dense *closure ids* ordered by a
hierarchy traversal, so subsumption becomes an id-range test.  That
remap never feeds back into this dictionary — closure ids live only
inside :class:`repro.litemat.encoder.HierarchyEncoding` — but it relies
on the density guaranteed here to keep its id↔interval tables flat
arrays rather than hash maps.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..rdf.terms import Term, Triple
from ..rdf.vocabulary import (
    PROPERTY_MARKING_TYPES,
    PROPERTY_POSITION_PREDICATES,
    RDF,
)
from .triple_column import TripleColumn

#: The split point of the id space: property ids are ≤ PROPERTY_BASE,
#: resource ids are > PROPERTY_BASE.
PROPERTY_BASE = 1 << 32

#: Encoded triple: (subject_id, property_id, object_id).
EncodedTriple = Tuple[int, int, int]


class DictionaryError(ValueError):
    """Raised on inconsistent encodings (e.g. late property promotion)."""


class Dictionary:
    """Bidirectional term ↔ dense-id mapping with the split numbering.

    The same term may appear both as a predicate and as a subject/object
    (e.g. ``rdfs:subClassOf`` itself in schema-of-schema statements); it
    then keeps its single *property* id in every position.  What is not
    allowed — and raises :class:`DictionaryError` — is discovering that an
    already-encoded *resource* must become a property: callers avoid this
    by using :func:`encode_dataset`, which pre-registers property terms.
    """

    def __init__(self) -> None:
        self._ids: Dict[Term, int] = {}
        self._property_terms: List[Term] = []
        self._resource_terms: List[Term] = []

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    def encode_property(self, term: Term) -> int:
        """Return the property id for ``term``, allocating downward."""
        existing = self._ids.get(term)
        if existing is not None:
            if existing > PROPERTY_BASE:
                raise DictionaryError(
                    f"{term!r} already encoded as a resource "
                    f"({existing}); property promotion requires re-encoding "
                    "— load datasets through encode_dataset()"
                )
            return existing
        new_id = PROPERTY_BASE - len(self._property_terms)
        self._property_terms.append(term)
        self._ids[term] = new_id
        return new_id

    def encode_properties(self, terms: Iterable[Term]) -> List[int]:
        """:meth:`encode_property` for each term, all or nothing.

        When one of them is already a resource the ids this call
        allocated are released before :class:`DictionaryError` leaves.
        """
        mark = len(self._property_terms)
        try:
            return [self.encode_property(term) for term in terms]
        except DictionaryError:
            for term in self._property_terms[mark:]:
                del self._ids[term]
            del self._property_terms[mark:]
            raise

    def encode_resource(self, term: Term) -> int:
        """Return the id for ``term`` in subject/object position.

        A term already registered as a property keeps its property id.
        """
        new_id = PROPERTY_BASE + 1 + len(self._resource_terms)
        # One hash of the term, whether it is new or not.
        existing = self._ids.setdefault(term, new_id)
        if existing == new_id:
            self._resource_terms.append(term)
        return existing

    def encode_triple(self, triple: Triple) -> EncodedTriple:
        """Encode one triple (predicate gets a property id)."""
        return (
            self.encode_resource(triple.subject),
            self.encode_property(triple.predicate),
            self.encode_resource(triple.object),
        )

    # ------------------------------------------------------------------
    # Decoding & lookups
    # ------------------------------------------------------------------
    def id_of(self, term: Term) -> Optional[int]:
        """The id of ``term`` if already encoded, else ``None``."""
        return self._ids.get(term)

    def ids_of(self, triple: Triple) -> Optional[EncodedTriple]:
        """The (s, p, o) id triple if all three terms are already
        encoded, else ``None`` — a probe, nothing is allocated."""
        get = self._ids.get
        ids = (get(triple.subject), get(triple.predicate), get(triple.object))
        return None if None in ids else ids

    def decode(self, term_id: int) -> Term:
        """Return the term for an id.

        Raises
        ------
        KeyError
            If the id was never allocated.
        """
        if term_id <= PROPERTY_BASE:
            index = PROPERTY_BASE - term_id
            if 0 <= index < len(self._property_terms):
                return self._property_terms[index]
        else:
            index = term_id - PROPERTY_BASE - 1
            if 0 <= index < len(self._resource_terms):
                return self._resource_terms[index]
        raise KeyError(f"unknown term id {term_id}")

    def decode_column(self, term_ids: Iterable[int]) -> List[Term]:
        """Decode a column of ids read from the store (so all allocated)
        — one list lookup per id, no per-term call."""
        properties = self._property_terms
        resources = self._resource_terms
        first_resource = PROPERTY_BASE + 1
        return [
            resources[term_id - first_resource]
            if term_id > PROPERTY_BASE
            else properties[PROPERTY_BASE - term_id]
            for term_id in term_ids
        ]

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        """Decode an (s, p, o) id triple back to RDF terms."""
        subject_id, property_id, object_id = encoded
        return Triple(
            self.decode(subject_id),
            self.decode(property_id),  # type: ignore[arg-type]
            self.decode(object_id),
        )

    # ------------------------------------------------------------------
    # Size
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ids)

    # ------------------------------------------------------------------
    # Persistence (used by the Store save/load format)
    # ------------------------------------------------------------------
    def term_lists(self) -> Tuple[List[Term], List[Term]]:
        """(property terms, resource terms) in allocation order.

        Replaying the two lists through :meth:`from_term_lists`
        reproduces the exact id assignment, which is what the store
        serialization format relies on.
        """
        return list(self._property_terms), list(self._resource_terms)

    @classmethod
    def from_term_lists(
        cls,
        property_terms: Iterable[Term],
        resource_terms: Iterable[Term],
    ) -> "Dictionary":
        """Rebuild a dictionary from :meth:`term_lists` output."""
        dictionary = cls()
        for term in property_terms:
            dictionary.encode_property(term)
        for term in resource_terms:
            dictionary.encode_resource(term)
        return dictionary


def _property_positions(terms: Sequence[Term], flat):
    """:func:`scan_property_terms` over the flat ``s p o …`` column of
    table positions: the positions in order of first occurrence by
    (statement, slot), the predicate's slot first — the order pass 1
    registers them in."""
    import numpy as np

    subjects, predicates, objects = flat[0::3], flat[1::3], flat[2::3]
    distinct, first = np.unique(predicates, return_index=True)
    # (statement, position) runs; within one statement, concatenation
    # order is slot order: its predicate, then subject, then object.
    rows, found = [first], [distinct]
    for position in distinct.tolist():
        predicate = terms[position]
        if predicate == RDF.type:
            at = np.flatnonzero(predicates == position)
            marking = [
                c for c in np.unique(objects[at]).tolist()
                if terms[c] in PROPERTY_MARKING_TYPES
            ]
            at = at[np.isin(objects[at], marking)]
            columns = [subjects]
        else:
            roles = PROPERTY_POSITION_PREDICATES.get(predicate, ())
            columns = [subjects] if "subject" in roles else []
            if "object" in roles:
                columns.append(objects)
            if columns:
                at = np.flatnonzero(predicates == position)
        for column in columns:
            rows.append(at)
            found.append(column[at])
    in_order = np.concatenate(found)[
        np.argsort(np.concatenate(rows), kind="stable")
    ]
    positions, first = np.unique(in_order, return_index=True)
    return positions[np.argsort(first)]


def _resource_positions(n_terms: int, flat, properties):
    """The positions of the subjects and objects of the flat ``s p o …``
    column that are not ``properties``, in order of first occurrence."""
    import numpy as np

    subjects, objects = flat[0::3], flat[2::3]
    if _numbered_first_seen(flat):
        # A non-property occurs in subject and object slots only, so
        # first-seen numbering orders these positions by occurrence.
        used = np.zeros(n_terms, dtype=bool)
        used[subjects] = True
        used[objects] = True
        used[properties] = False
        return np.flatnonzero(used)
    occurring = np.column_stack((subjects, objects)).ravel()
    positions, first = np.unique(occurring, return_index=True)
    positions = positions[np.argsort(first)]
    return positions[~np.isin(positions, properties)]


def _numbered_first_seen(flat) -> bool:
    """Whether the positions of ``flat`` are numbered 0, 1, 2, … in the
    order they first occur (a running-max check)."""
    import numpy as np

    if not len(flat):
        return True
    highest = np.maximum.accumulate(flat)
    return bool(flat[0] == 0 and (flat[1:] <= highest[:-1] + 1).all())


def scan_property_terms(triples: Sequence[Triple]) -> List[Term]:
    """First pass of :func:`encode_dataset`: collect property-position terms.

    Returns terms in first-seen order: every predicate, plus subjects /
    objects of schema predicates that denote properties (see module doc).
    """
    seen: Dict[Term, None] = {}
    for triple in triples:
        if triple.predicate not in seen:
            seen[triple.predicate] = None
        positions = PROPERTY_POSITION_PREDICATES.get(triple.predicate)
        if positions:
            if "subject" in positions and triple.subject not in seen:
                seen[triple.subject] = None
            if "object" in positions and triple.object not in seen:
                seen[triple.object] = None
        elif (
            triple.predicate == RDF.type
            and triple.object in PROPERTY_MARKING_TYPES
            and triple.subject not in seen
        ):
            seen[triple.subject] = None
    return list(seen)


def encode_dataset(
    triples: Sequence[Triple],
    dictionary: Optional[Dictionary] = None,
) -> Tuple[Dictionary, List[EncodedTriple]]:
    """Two-pass dataset encoding preserving the dense split numbering.

    Pass 1 registers every property-position term as a property; pass 2
    encodes the triples.  Returns the (possibly supplied) dictionary and
    the encoded triple list.  A :class:`DictionaryError` (pass 1 is
    where it arises) leaves the dictionary as it was.
    """
    if dictionary is None:
        dictionary = Dictionary()
    dictionary.encode_properties(scan_property_terms(triples))
    encoded = [dictionary.encode_triple(triple) for triple in triples]
    return dictionary, encoded


def encode_columns(
    terms: Sequence[Term],
    subjects: Sequence[int],
    predicates: Sequence[int],
    objects: Sequence[int],
    dictionary: Optional[Dictionary] = None,
) -> Tuple[Dictionary, Dict[int, object], TripleColumn]:
    """:func:`encode_dataset` over term columns, partitioned by property.

    Statement ``i`` is ``(terms[subjects[i]], terms[predicates[i]],
    terms[objects[i]])`` — the shape :func:`repro.rdf.ntriples.read_columns`
    returns (int64 arrays; any integer sequences do).  The ids are the
    ones :func:`encode_dataset` would assign to the same statements, and
    the work per statement is numpy's:

    * the property positions — each predicate's first occurrence
      (``np.unique``), plus the subjects and objects of the statements
      whose predicate puts a property there — are registered in order of
      (statement, slot), as pass 1 would meet them;
    * the remaining subject and object positions are resources, in order
      of first occurrence: position order when the table is numbered
      first-seen, as ``read_columns`` numbers it (checked in one pass),
      and found by sorting otherwise;
    * every occurrence then takes its id by one gather.

    The dictionary is thus probed once per entry of ``terms``.  Two
    entries may hold equal terms (two spellings in a file): they get one
    id.

    Returns the dictionary, the flat ``⟨s, o⟩`` id pairs of each
    property (keyed by property id, in first-seen order — what
    :meth:`repro.store.triple_store.TripleStore.add_pairs` takes) and
    the encoded triples in input order, as a :class:`TripleColumn`.  A
    :class:`DictionaryError` leaves the dictionary as it was.
    """
    import numpy as np

    if dictionary is None:
        dictionary = Dictionary()
    flat = np.column_stack(
        [np.asarray(column, dtype=np.int64).reshape(-1)
         for column in (subjects, predicates, objects)]
    ).ravel()
    ids = np.zeros(len(terms), dtype=np.int64)
    properties = _property_positions(terms, flat)
    ids[properties] = dictionary.encode_properties(
        [terms[position] for position in properties.tolist()]
    )
    resources = _resource_positions(len(terms), flat, properties)
    resource_terms = map(terms.__getitem__, resources.tolist())
    ids[resources] = np.fromiter(
        map(dictionary.encode_resource, resource_terms),
        np.int64,
        len(resources),
    )
    encoded = TripleColumn(ids[flat])
    return dictionary, dict(encoded.by_property()), encoded
