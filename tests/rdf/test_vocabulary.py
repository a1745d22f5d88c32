"""Unit tests for the W3C vocabulary namespaces."""

from repro.rdf.terms import IRI
from repro.rdf.vocabulary import (
    OWL,
    PROPERTY_MARKING_TYPES,
    PROPERTY_POSITION_PREDICATES,
    RDF,
    RDFS,
    XSD,
)


class TestNamespaces:
    def test_rdf_type(self):
        assert RDF.type == IRI(
            "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
        )

    def test_rdfs_subclassof(self):
        assert RDFS.subClassOf == IRI(
            "http://www.w3.org/2000/01/rdf-schema#subClassOf"
        )

    def test_owl_sameas(self):
        assert OWL.sameAs == IRI("http://www.w3.org/2002/07/owl#sameAs")

    def test_xsd_string(self):
        assert XSD.string == IRI("http://www.w3.org/2001/XMLSchema#string")

    def test_dynamic_minting(self):
        assert RDFS.term("weirdTerm") == IRI(
            "http://www.w3.org/2000/01/rdf-schema#weirdTerm"
        )
        assert OWL.term("custom") == IRI(
            "http://www.w3.org/2002/07/owl#custom"
        )

    def test_prefix_exposed(self):
        assert RDFS.prefix.endswith("rdf-schema#")

    def test_known_constants_are_iris(self):
        for term in (
            RDFS.domain, RDFS.range, RDFS.member, RDFS.Resource,
            RDFS.Literal, RDFS.Datatype, RDFS.ContainerMembershipProperty,
            OWL.equivalentClass, OWL.equivalentProperty, OWL.inverseOf,
            OWL.TransitiveProperty, OWL.SymmetricProperty,
            OWL.FunctionalProperty, OWL.InverseFunctionalProperty,
            OWL.Thing, OWL.Nothing, RDF.Property,
        ):
            assert isinstance(term, IRI)


class TestPromotionTables:
    def test_property_position_predicates(self):
        assert PROPERTY_POSITION_PREDICATES[RDFS.subPropertyOf] == (
            "subject",
            "object",
        )
        assert PROPERTY_POSITION_PREDICATES[RDFS.domain] == ("subject",)

    def test_marking_types_include_owl_markers(self):
        assert OWL.TransitiveProperty in PROPERTY_MARKING_TYPES
        assert OWL.FunctionalProperty in PROPERTY_MARKING_TYPES
        assert RDF.Property in PROPERTY_MARKING_TYPES
