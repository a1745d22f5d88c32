"""Dictionary encoding with the paper's split dense numbering (§5.1).

Inference never mints new terms — only new *combinations* of existing
subjects, properties and objects.  Inferray exploits this by encoding all
terms once, at load time, into dense 64-bit ids:

* the numbering space ``[0, 2**64)`` is split at ``2**32``;
* **properties** are numbered *downward* from ``2**32``
  (first property → ``2**32``, second → ``2**32 - 1``, …);
* **non-property resources** are numbered *upward* from ``2**32 + 1``.

Both halves stay dense, which keeps the entropy of the values low — the
property that the counting / MSDA-radix sorts of :mod:`repro.sorting`
exploit.  A simple *index translation* (``2**32 - property_id``) maps a
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

from array import array
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..rdf.terms import Term, Triple
from ..rdf.vocabulary import (
    PROPERTY_MARKING_TYPES,
    PROPERTY_POSITION_PREDICATES,
    RDF,
)

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

    def encode_resource(self, term: Term) -> int:
        """Return the id for ``term`` in subject/object position.

        A term already registered as a property keeps its property id.
        """
        existing = self._ids.get(term)
        if existing is not None:
            return existing
        new_id = PROPERTY_BASE + 1 + len(self._resource_terms)
        self._resource_terms.append(term)
        self._ids[term] = new_id
        return new_id

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

    def decode_triple(self, encoded: EncodedTriple) -> Triple:
        """Decode an (s, p, o) id triple back to RDF terms."""
        subject_id, property_id, object_id = encoded
        return Triple(
            self.decode(subject_id),
            self.decode(property_id),  # type: ignore[arg-type]
            self.decode(object_id),
        )

    # ------------------------------------------------------------------
    # Id-space structure
    # ------------------------------------------------------------------
    def is_property_id(self, term_id: int) -> bool:
        """True iff the id lies in the (allocated) property half."""
        return (
            PROPERTY_BASE - len(self._property_terms) < term_id <= PROPERTY_BASE
        )

    @staticmethod
    def property_index(property_id: int) -> int:
        """Index translation: property id → dense table index (paper §5.1)."""
        return PROPERTY_BASE - property_id

    @staticmethod
    def property_id_from_index(index: int) -> int:
        """Inverse index translation: table index → property id."""
        return PROPERTY_BASE - index

    @property
    def n_properties(self) -> int:
        """Number of allocated property ids."""
        return len(self._property_terms)

    @property
    def n_resources(self) -> int:
        """Number of allocated non-property resource ids."""
        return len(self._resource_terms)

    def __len__(self) -> int:
        return len(self._ids)

    def property_ids(self) -> List[int]:
        """All allocated property ids, most-recently allocated last."""
        return [
            PROPERTY_BASE - index
            for index in range(len(self._property_terms))
        ]

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

    # ------------------------------------------------------------------
    # Density diagnostics (used by sorting heuristics and tests)
    # ------------------------------------------------------------------
    def resource_id_range(self) -> Tuple[int, int]:
        """(lowest, highest) allocated resource id; (0, 0) if none."""
        if not self._resource_terms:
            return (0, 0)
        return (PROPERTY_BASE + 1, PROPERTY_BASE + len(self._resource_terms))


#: ``roles`` entry for rdf:type in the property-position scans: the
#: subject is a property when the object is a property-marking class.
_TYPE_ROLE = ("type",)


def _property_role(predicate: Term) -> tuple:
    """Which positions of a ``predicate`` statement denote properties."""
    if predicate == RDF.type:
        return _TYPE_ROLE
    return PROPERTY_POSITION_PREDICATES.get(predicate, ())


def scan_property_terms(triples: Sequence[Triple]) -> List[Term]:
    """First pass of :func:`encode_dataset`: collect property-position terms.

    Returns terms in first-seen order: every predicate, plus subjects /
    objects of schema predicates that denote properties (see module doc).
    """
    seen: Dict[Term, None] = {}
    roles: Dict[Term, tuple] = {}
    role_of = roles.get
    for subject, predicate, obj in triples:
        positions = role_of(predicate)
        if positions is None:
            seen.setdefault(predicate)
            positions = roles[predicate] = _property_role(predicate)
        if not positions:
            continue
        if positions is _TYPE_ROLE:
            if obj in PROPERTY_MARKING_TYPES:
                seen.setdefault(subject)
            continue
        if "subject" in positions:
            seen.setdefault(subject)
        if "object" in positions:
            seen.setdefault(obj)
    return list(seen)


def encode_dataset(
    triples: Sequence[Triple],
    dictionary: Optional[Dictionary] = None,
) -> Tuple[Dictionary, List[EncodedTriple]]:
    """Two-pass dataset encoding preserving the dense split numbering.

    Pass 1 registers every property-position term as a property; pass 2
    encodes the triples.  Returns the (possibly supplied) dictionary and
    the encoded triple list.
    """
    if dictionary is None:
        dictionary = Dictionary()
    for term in scan_property_terms(triples):
        dictionary.encode_property(term)
    # Dictionary.encode_triple, inlined: after pass 1 every predicate
    # has its property id, and a known term costs one probe, no call.
    known = dictionary._ids.get
    encode_resource = dictionary.encode_resource
    encoded: List[EncodedTriple] = []
    append = encoded.append
    for subject, predicate, obj in triples:
        subject_id = known(subject)
        if subject_id is None:
            subject_id = encode_resource(subject)
        object_id = known(obj)
        if object_id is None:
            object_id = encode_resource(obj)
        append((subject_id, known(predicate), object_id))
    return dictionary, encoded


def encode_columns(
    terms: Sequence[Term],
    subjects: Sequence[int],
    predicates: Sequence[int],
    objects: Sequence[int],
    dictionary: Optional[Dictionary] = None,
) -> Tuple[Dictionary, Dict[int, array], List[EncodedTriple]]:
    """:func:`encode_dataset` over interned columns, partitioned by property.

    Statement ``i`` is ``(terms[subjects[i]], terms[predicates[i]],
    terms[objects[i]])`` — the shape :func:`repro.rdf.ntriples.read_columns`
    returns.  The same two passes run in the same order, so the ids are
    the ones :func:`encode_dataset` would assign to the same statements;
    the dictionary is probed once per entry of ``terms`` instead of once
    per occurrence, and every occurrence after that is a list lookup.

    Returns the dictionary, the flat ``⟨s, o⟩`` id pairs of each
    property (keyed by property id, in first-seen order — what
    :meth:`repro.store.triple_store.TripleStore.add_pairs` takes) and
    the encoded triples in input order.
    """
    if dictionary is None:
        dictionary = Dictionary()
    ids: List[Optional[int]] = [None] * len(terms)

    # Pass 1, as scan_property_terms: every predicate, then whatever the
    # statement puts in a property position.  ``roles[p]`` caches, per
    # predicate, which positions those are (or that it is rdf:type).
    encode_property = dictionary.encode_property
    roles: List[Optional[tuple]] = [None] * len(terms)
    for s, p, o in zip(subjects, predicates, objects):
        positions = roles[p]
        if positions is None:
            ids[p] = encode_property(terms[p])
            positions = roles[p] = _property_role(terms[p])
        if not positions:
            continue
        if positions is _TYPE_ROLE:
            if ids[s] is None and terms[o] in PROPERTY_MARKING_TYPES:
                ids[s] = encode_property(terms[s])
            continue
        if "subject" in positions and ids[s] is None:
            ids[s] = encode_property(terms[s])
        if "object" in positions and ids[o] is None:
            ids[o] = encode_property(terms[o])

    # Pass 2, as encode_triple: subject, then object, first seen first.
    encode_resource = dictionary.encode_resource
    pairs: Dict[int, array] = {}
    encoded: List[EncodedTriple] = []
    append = encoded.append
    for s, p, o in zip(subjects, predicates, objects):
        subject_id = ids[s]
        if subject_id is None:
            subject_id = ids[s] = encode_resource(terms[s])
        object_id = ids[o]
        if object_id is None:
            object_id = ids[o] = encode_resource(terms[o])
        property_id = ids[p]
        column = pairs.get(property_id)
        if column is None:
            column = pairs[property_id] = array("q")
        column.append(subject_id)
        column.append(object_id)
        append((subject_id, property_id, object_id))
    return dictionary, pairs, encoded
