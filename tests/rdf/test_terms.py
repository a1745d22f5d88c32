"""Unit tests for the RDF term model."""

import pytest

from repro.rdf.terms import (
    BlankNode,
    IRI,
    Literal,
    TermError,
    Triple,
    iri,
    make_triple,
)


class TestIRI:
    def test_n3_rendering(self):
        assert IRI("http://example.org/a").n3() == "<http://example.org/a>"

    def test_str(self):
        assert str(IRI("http://x")) == "http://x"

    def test_equality_by_value(self):
        assert IRI("http://x") == IRI("http://x")
        assert IRI("http://x") != IRI("http://y")

    def test_hashable(self):
        assert len({IRI("a"), IRI("a"), IRI("b")}) == 2

    def test_iri_shorthand(self):
        assert iri("http://x") == IRI("http://x")


class TestBlankNode:
    def test_n3_rendering(self):
        assert BlankNode("b0").n3() == "_:b0"

    def test_distinct_from_iri(self):
        assert BlankNode("a") != IRI("a")


class TestLiteral:
    def test_plain_n3(self):
        assert Literal("hi").n3() == '"hi"'

    def test_language_tagged_n3(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_datatyped_n3(self):
        lit = Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert lit.n3() == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_xsd_string_datatype_suppressed(self):
        lit = Literal("x", datatype="http://www.w3.org/2001/XMLSchema#string")
        assert lit.n3() == '"x"'

    def test_escaping(self):
        lit = Literal('say "hi"\nplease\t\\now')
        assert lit.n3() == '"say \\"hi\\"\\nplease\\t\\\\now"'

    def test_equality_structural(self):
        assert Literal("a") == Literal("a")
        assert Literal("a") != Literal("a", language="en")
        assert Literal("a", datatype="dt") != Literal("a")


class TestTriple:
    def test_n3_statement(self):
        t = Triple(IRI("s"), IRI("p"), Literal("o"))
        assert t.n3() == '<s> <p> "o" .'

    def test_make_triple_valid(self):
        t = make_triple(IRI("s"), IRI("p"), IRI("o"))
        assert t == Triple(IRI("s"), IRI("p"), IRI("o"))

    def test_make_triple_bnode_subject(self):
        t = make_triple(BlankNode("b"), IRI("p"), IRI("o"))
        assert t.subject == BlankNode("b")

    def test_literal_subject_rejected(self):
        with pytest.raises(TermError):
            make_triple(Literal("x"), IRI("p"), IRI("o"))

    def test_non_iri_predicate_rejected(self):
        with pytest.raises(TermError):
            make_triple(IRI("s"), BlankNode("p"), IRI("o"))
        with pytest.raises(TermError):
            make_triple(IRI("s"), Literal("p"), IRI("o"))

    def test_bad_object_rejected(self):
        with pytest.raises(TermError):
            make_triple(IRI("s"), IRI("p"), "not-a-term")

    def test_triples_hashable(self):
        a = Triple(IRI("s"), IRI("p"), IRI("o"))
        b = Triple(IRI("s"), IRI("p"), IRI("o"))
        assert len({a, b}) == 1
