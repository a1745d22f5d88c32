"""Unit tests for the Turtle subset parser."""

import pytest

from repro.rdf.terms import BlankNode, IRI, Literal, Triple
from repro.rdf.turtle import TurtleError, parse_turtle, parse_turtle_file
from repro.rdf.vocabulary import RDF, XSD


def contains(engine, triple):
    """Whether the engine's closure holds ``triple`` (its read view)."""
    return any(engine.query(*triple))


class TestPrefixes:
    def test_at_prefix(self):
        doc = """
        @prefix ex: <http://example.org/> .
        ex:a ex:p ex:b .
        """
        triples = list(parse_turtle(doc))
        assert triples == [
            Triple(
                IRI("http://example.org/a"),
                IRI("http://example.org/p"),
                IRI("http://example.org/b"),
            )
        ]

    def test_sparql_prefix(self):
        doc = """
        PREFIX ex: <http://example.org/>
        ex:a ex:p ex:b .
        """
        assert len(list(parse_turtle(doc))) == 1

    def test_empty_prefix(self):
        doc = """
        @prefix : <http://example.org/> .
        :a :p :b .
        """
        triples = list(parse_turtle(doc))
        assert triples[0].subject == IRI("http://example.org/a")

    def test_undeclared_prefix_rejected(self):
        with pytest.raises(TurtleError):
            list(parse_turtle("ex:a ex:p ex:b ."))


class TestStatements:
    def setup_method(self):
        self.header = "@prefix ex: <http://ex/> .\n"

    def test_a_keyword(self):
        triples = list(parse_turtle(self.header + "ex:x a ex:C ."))
        assert triples[0].predicate == RDF.type

    def test_predicate_list(self):
        doc = self.header + "ex:x a ex:C ; ex:p ex:y ; ex:q ex:z ."
        triples = list(parse_turtle(doc))
        assert len(triples) == 3
        assert all(t.subject == IRI("http://ex/x") for t in triples)

    def test_object_list(self):
        doc = self.header + "ex:x ex:p ex:a , ex:b , ex:c ."
        triples = list(parse_turtle(doc))
        assert [t.object for t in triples] == [
            IRI("http://ex/a"), IRI("http://ex/b"), IRI("http://ex/c"),
        ]

    def test_trailing_semicolon(self):
        doc = self.header + "ex:x ex:p ex:y ; ."
        assert len(list(parse_turtle(doc))) == 1

    def test_blank_nodes(self):
        doc = self.header + "_:b0 ex:p _:b1 ."
        triples = list(parse_turtle(doc))
        assert triples[0].subject == BlankNode("b0")
        assert triples[0].object == BlankNode("b1")

    def test_full_iris(self):
        doc = "<http://a> <http://p> <http://b> ."
        assert len(list(parse_turtle(doc))) == 1

    def test_comments_ignored(self):
        doc = self.header + "# nothing\nex:x ex:p ex:y . # trailing"
        assert len(list(parse_turtle(doc))) == 1


class TestLiterals:
    HEADER = "@prefix ex: <http://ex/> .\n"

    def test_plain_string(self):
        triples = list(parse_turtle(self.HEADER + 'ex:x ex:p "hello" .'))
        assert triples[0].object == Literal("hello")

    def test_escaped_string(self):
        triples = list(
            parse_turtle(self.HEADER + 'ex:x ex:p "line\\nbreak \\"q\\"" .')
        )
        assert triples[0].object == Literal('line\nbreak "q"')

    def test_language_tag(self):
        triples = list(parse_turtle(self.HEADER + 'ex:x ex:p "bon"@fr .'))
        assert triples[0].object == Literal("bon", language="fr")

    def test_datatyped(self):
        doc = (
            "@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n"
            + self.HEADER
            + 'ex:x ex:p "5"^^xsd:integer .'
        )
        triples = list(parse_turtle(doc))
        assert triples[0].object == Literal("5", datatype=XSD.integer.value)

    def test_integer_shorthand(self):
        triples = list(parse_turtle(self.HEADER + "ex:x ex:p 42 ."))
        assert triples[0].object == Literal("42", datatype=XSD.integer.value)

    def test_decimal_shorthand(self):
        triples = list(parse_turtle(self.HEADER + "ex:x ex:p 4.25 ."))
        assert triples[0].object == Literal(
            "4.25", datatype=XSD.decimal.value
        )

    def test_boolean_shorthand(self):
        triples = list(parse_turtle(self.HEADER + "ex:x ex:p true ."))
        assert triples[0].object == Literal(
            "true", datatype=XSD.boolean.value
        )


class TestErrors:
    @pytest.mark.parametrize(
        "doc",
        [
            "@prefix ex: <http://ex/> .\nex:a ex:p ex:b",  # missing dot
            '@prefix ex: <http://ex/> .\n"lit" ex:p ex:b .',  # literal subj
            "@prefix ex: <http://ex/> .\nex:a 42 ex:b .",  # number predicate
            "@prefix ex: <http://ex/>\nex:a ex:p ex:b .",  # missing decl dot
            "@prefix ex: <http://ex/> .\nex:a ex:p [ ex:q ex:r ] .",  # anon
        ],
    )
    def test_malformed(self, doc):
        with pytest.raises(TurtleError):
            list(parse_turtle(doc))

    # A bad \u / \U escape is a located TurtleError, never a bare
    # ValueError from int(..., 16), whose laxer forms (short, signed,
    # underscored) the grammar refuses, as it does code points past
    # U+10FFFF.
    @pytest.mark.parametrize(
        "literal",
        [
            r'"x\u"',
            r'"x\u12"',
            r'"x\u+123"',
            r'"x\u1_23"',
            r'"x\uZZZZ"',
            r'"x\U0001F60"',
            r'"x\U00110000"',
            r'"x\q"',
        ],
    )
    def test_bad_string_escape_is_located(self, literal):
        doc = "@prefix ex: <http://ex/> .\nex:a ex:p " + literal + " ."
        with pytest.raises(TurtleError, match="^line 2: bad "):
            list(parse_turtle(doc))

    def test_unicode_escapes_decode(self):
        triples = list(parse_turtle(r'<a> <p> "\u0041\U0001F600" .'))
        assert triples[0].object == Literal("A\U0001F600")


class TestOntologyDocument:
    def test_realistic_schema(self):
        doc = """
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix owl:  <http://www.w3.org/2002/07/owl#> .
        @prefix ex:   <http://example.org/zoo#> .

        ex:Lion  rdfs:subClassOf ex:Felid .
        ex:Felid rdfs:subClassOf ex:Mammal ;
                 rdfs:label "felid"@en .
        ex:eats  a owl:TransitiveProperty ;
                 rdfs:domain ex:Animal ;
                 rdfs:range  ex:Animal .
        """
        triples = list(parse_turtle(doc))
        assert len(triples) == 6

    def test_feeds_the_engine(self):
        from repro.core.engine import InferrayEngine

        doc = """
        @prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
        @prefix ex: <http://ex/> .
        ex:Cat rdfs:subClassOf ex:Animal .
        ex:tom a ex:Cat .
        """
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(parse_turtle(doc))
        engine.materialize()
        assert contains(engine,
            Triple(IRI("http://ex/tom"), RDF.type, IRI("http://ex/Animal"))
        )

    def test_file_loading(self, tmp_path):
        path = tmp_path / "schema.ttl"
        path.write_text(
            "@prefix ex: <http://ex/> .\nex:a ex:p ex:b .",
            encoding="utf-8",
        )
        assert len(list(parse_turtle_file(str(path)))) == 1
