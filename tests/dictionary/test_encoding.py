"""Unit tests for dictionary encoding and the split dense numbering."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary.encoding import (
    Dictionary,
    DictionaryError,
    PROPERTY_BASE,
    _numbered_first_seen,
    encode_columns,
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


# ----------------------------------------------------------------------
# encode_columns ≡ encode_dataset
# ----------------------------------------------------------------------
def columns_of(triples, order=None, respelled=()):
    """``triples`` as term columns.  Terms are numbered first-seen, as
    ``read_columns`` numbers them, then by ``order`` (a permutation)
    when given; every other occurrence of a term in ``respelled`` takes
    a second entry holding an equal term, as a second spelling would."""
    terms, first = [], {}
    flat = []
    for term in (term for triple in triples for term in triple):
        if term not in first:
            first[term] = len(terms)
            terms.append(term)
        flat.append(first[term])
    second, uses = {}, {}
    for i, position in enumerate(flat):
        term = terms[position]
        if term in respelled:
            uses[term] = uses.get(term, 0) + 1
            if uses[term] % 2 == 0:
                if term not in second:
                    second[term] = len(terms)
                    terms.append(IRI(term.value) if isinstance(term, IRI)
                                 else term)
                flat[i] = second[term]
    if order is not None:
        order = list(order) + list(range(len(order), len(terms)))
        terms = [terms[order.index(k)] for k in range(len(terms))]
        flat = [order[position] for position in flat]
    return terms, flat[0::3], flat[1::3], flat[2::3]


def outcome(encode, dictionary):
    """Encoded triples and the dictionary after, or the error and the
    dictionary as it was left."""
    try:
        encoded = encode(dictionary)
    except DictionaryError:
        return "error", dictionary.term_lists(), len(dictionary)
    return list(encoded), dictionary.term_lists(), len(dictionary)


def check_columns(triples, seed=(), order=None, respelled=()):
    columns = columns_of(triples, order, respelled)

    def seeded():
        dictionary = Dictionary()
        encode_dataset(list(seed), dictionary)
        return dictionary

    by_objects = outcome(lambda d: encode_dataset(triples, d)[1], seeded())
    by_columns = outcome(
        lambda d: encode_columns(*columns, dictionary=d)[2], seeded()
    )
    assert by_columns == by_objects
    return by_objects[0] != "error"


SCHEMA_TRIPLES = [
    Triple(IRI("x"), IRI("knows"), IRI("y")),
    Triple(IRI("knows"), RDFS.subPropertyOf, IRI("related")),
    Triple(IRI("y"), IRI("related"), Literal("5")),
    Triple(IRI("ancestor"), RDF.type, OWL.TransitiveProperty),
    Triple(IRI("x"), RDF.type, IRI("Person")),
    Triple(IRI("knows"), RDFS.domain, IRI("Person")),
    Triple(IRI("z"), IRI("ancestor"), IRI("x")),
    Triple(IRI("parentOf"), OWL.inverseOf, IRI("childOf")),
    Triple(IRI("x"), IRI("knows"), IRI("z")),
]


class TestEncodeColumns:
    def test_first_seen_columns(self):
        columns = columns_of(SCHEMA_TRIPLES)
        assert _numbered_first_seen(
            [p for statement in zip(*columns[1:]) for p in statement]
        )
        assert check_columns(SCHEMA_TRIPLES)

    def test_on_a_used_dictionary(self):
        seed = [Triple(IRI("w"), IRI("seen"), IRI("x")),
                Triple(IRI("w"), IRI("knows"), IRI("Person"))]
        assert check_columns(SCHEMA_TRIPLES, seed=seed)

    def test_columns_not_numbered_first_seen(self):
        order = list(range(len(columns_of(SCHEMA_TRIPLES)[0])))[::-1]
        columns = columns_of(SCHEMA_TRIPLES, order)
        assert not _numbered_first_seen(
            [p for statement in zip(*columns[1:]) for p in statement]
        )
        assert check_columns(SCHEMA_TRIPLES, order=order)

    def test_two_spellings_of_one_term(self):
        respelled = {IRI("x"), IRI("knows"), Literal("5")}
        terms = columns_of(SCHEMA_TRIPLES, respelled=respelled)[0]
        assert len(terms) == len(set(terms)) + 2  # the literal occurs once
        assert check_columns(SCHEMA_TRIPLES, respelled=respelled)

    def test_late_promotion_raises_and_changes_nothing(self):
        seed = [Triple(IRI("w"), IRI("seen"), IRI("knows"))]
        assert not check_columns(SCHEMA_TRIPLES, seed=seed)

    def test_empty_columns(self):
        dictionary, pairs, encoded = encode_columns([], [], [], [])
        assert len(dictionary) == 0 and pairs == {} and len(encoded) == 0


_POOL = [IRI(name) for name in ("a", "b", "c", "p", "q")] + [
    RDFS.subPropertyOf, RDFS.domain, OWL.inverseOf, RDF.type,
    OWL.SymmetricProperty, Literal("a"),
]


@st.composite
def column_cases(draw):
    resource = st.sampled_from(_POOL[:5] + _POOL[9:10])
    predicate = st.sampled_from(_POOL[3:9])
    obj = st.sampled_from(_POOL)
    triples = draw(st.lists(st.builds(Triple, resource, predicate, obj),
                            max_size=12))
    seed = draw(st.lists(st.builds(Triple, resource, predicate, obj),
                         max_size=3))
    n_terms = len(columns_of(triples)[0])
    order = draw(st.one_of(st.none(), st.permutations(range(n_terms))))
    respelled = draw(st.sets(st.sampled_from(_POOL[:5]), max_size=2))
    return triples, seed, order, respelled


@settings(max_examples=300, deadline=None, derandomize=True,
          database=None)
@given(column_cases())
def test_encode_columns_equals_encode_dataset(case):
    triples, seed, order, respelled = case
    check_columns(triples, seed, order, respelled)
