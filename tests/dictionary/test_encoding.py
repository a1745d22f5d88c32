"""Unit tests for dictionary encoding and the split dense numbering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.encoding import (
    Dictionary,
    DictionaryError,
    PROPERTY_BASE,
    encode_dataset,
    scan_property_terms,
)
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS


class TestDenseNumbering:
    def test_first_property_gets_base(self):
        d = Dictionary()
        assert d.encode_property(IRI("p0")) == PROPERTY_BASE

    def test_properties_descend(self):
        d = Dictionary()
        ids = [d.encode_property(IRI(f"p{i}")) for i in range(5)]
        assert ids == [PROPERTY_BASE - i for i in range(5)]

    def test_resources_ascend_from_base_plus_one(self):
        d = Dictionary()
        ids = [d.encode_resource(IRI(f"r{i}")) for i in range(5)]
        assert ids == [PROPERTY_BASE + 1 + i for i in range(5)]

    def test_halves_are_dense(self):
        d = Dictionary()
        for i in range(10):
            d.encode_property(IRI(f"p{i}"))
            d.encode_resource(IRI(f"r{i}"))
        properties, resources = d.term_lists()
        assert len(properties) == len(resources) == 10
        assert sorted(map(d.id_of, properties)) == list(
            range(PROPERTY_BASE - 9, PROPERTY_BASE + 1)
        )
        assert sorted(map(d.id_of, resources)) == list(
            range(PROPERTY_BASE + 1, PROPERTY_BASE + 11)
        )

    def test_same_term_same_id(self):
        d = Dictionary()
        assert d.encode_resource(IRI("x")) == d.encode_resource(IRI("x"))
        assert d.encode_property(IRI("p")) == d.encode_property(IRI("p"))

    def test_property_reused_as_resource_keeps_property_id(self):
        d = Dictionary()
        pid = d.encode_property(IRI("p"))
        assert d.encode_resource(IRI("p")) == pid

    def test_resource_to_property_promotion_rejected(self):
        d = Dictionary()
        d.encode_resource(IRI("x"))
        with pytest.raises(DictionaryError):
            d.encode_property(IRI("x"))


class TestDecode:
    def test_decode_roundtrip(self):
        d = Dictionary()
        terms = [IRI("a"), Literal("x", language="en"), IRI("b")]
        ids = [d.encode_resource(t) for t in terms]
        assert [d.decode(i) for i in ids] == terms

    def test_decode_property(self):
        d = Dictionary()
        pid = d.encode_property(RDF.type)
        assert d.decode(pid) == RDF.type

    def test_decode_unknown_raises(self):
        d = Dictionary()
        with pytest.raises(KeyError):
            d.decode(PROPERTY_BASE + 99)
        with pytest.raises(KeyError):
            d.decode(PROPERTY_BASE - 99)

    def test_decode_triple(self):
        d = Dictionary()
        triple = Triple(IRI("s"), IRI("p"), Literal("o"))
        encoded = d.encode_triple(triple)
        assert d.decode_triple(encoded) == triple

    def test_id_of(self):
        d = Dictionary()
        assert d.id_of(IRI("nope")) is None
        rid = d.encode_resource(IRI("yes"))
        assert d.id_of(IRI("yes")) == rid


class TestPropertyScan:
    def test_predicates_collected(self):
        triples = [Triple(IRI("s"), IRI("p"), IRI("o"))]
        assert scan_property_terms(triples) == [IRI("p")]

    def test_subproperty_positions_promoted(self):
        triples = [Triple(IRI("p1"), RDFS.subPropertyOf, IRI("p2"))]
        found = scan_property_terms(triples)
        assert IRI("p1") in found and IRI("p2") in found

    def test_domain_subject_promoted_object_not(self):
        triples = [Triple(IRI("p1"), RDFS.domain, IRI("c"))]
        found = scan_property_terms(triples)
        assert IRI("p1") in found
        assert IRI("c") not in found

    def test_type_markers_promote_subject(self):
        triples = [Triple(IRI("p"), RDF.type, OWL.TransitiveProperty)]
        assert IRI("p") in scan_property_terms(triples)

    def test_plain_type_does_not_promote(self):
        triples = [Triple(IRI("x"), RDF.type, IRI("SomeClass"))]
        found = scan_property_terms(triples)
        assert IRI("x") not in found

    def test_inverseof_and_equivalentproperty(self):
        triples = [
            Triple(IRI("a"), OWL.inverseOf, IRI("b")),
            Triple(IRI("c"), OWL.equivalentProperty, IRI("d")),
        ]
        found = set(scan_property_terms(triples))
        assert {IRI("a"), IRI("b"), IRI("c"), IRI("d")} <= found


class TestEncodeDataset:
    def test_two_pass_avoids_promotion_error(self):
        # p2 appears first as an object, later as a predicate — one-pass
        # encoding would blow up; the two-pass loader must not.
        triples = [
            Triple(IRI("p1"), RDFS.subPropertyOf, IRI("p2")),
            Triple(IRI("x"), IRI("p2"), IRI("y")),
        ]
        d, encoded = encode_dataset(triples)
        assert len(encoded) == 2
        # Both in the property half of the id space.
        assert encoded[0][0] <= PROPERTY_BASE  # p1
        assert encoded[0][2] <= PROPERTY_BASE  # p2

    def test_existing_dictionary_extended(self):
        d = Dictionary()
        d.encode_property(RDF.type)
        d2, encoded = encode_dataset(
            [Triple(IRI("a"), RDF.type, IRI("C"))], d
        )
        assert d2 is d
        assert encoded[0][1] == d.id_of(RDF.type)

    def test_decoded_matches_input(self):
        triples = [
            Triple(IRI("s"), IRI("p"), Literal("5", datatype="http://dt")),
            Triple(IRI("p"), RDFS.domain, IRI("c")),
        ]
        d, encoded = encode_dataset(triples)
        assert [d.decode_triple(e) for e in encoded] == triples


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 30), st.integers(0, 5), st.integers(0, 30)
        ),
        max_size=40,
    )
)
def test_encode_decode_property(raw):
    """encode∘decode is the identity and the split invariant holds."""
    triples = [
        Triple(IRI(f"s{a}"), IRI(f"p{b}"), IRI(f"o{c}")) for a, b, c in raw
    ]
    d, encoded = encode_dataset(triples)
    for original, ids in zip(triples, encoded):
        assert d.decode_triple(ids) == original
        assert ids[1] <= PROPERTY_BASE  # predicates in the property half
