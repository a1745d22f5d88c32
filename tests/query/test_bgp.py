"""Unit tests for the BGP query layer."""

import pytest

from repro.core.engine import InferrayEngine
from repro.query.bgp import Query, TriplePattern, Var, parse_pattern
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS


def ex(name):
    return IRI(f"ex:{name}")


@pytest.fixture(scope="module")
def engine():
    e = InferrayEngine("rdfs-default")
    e.load_triples(
        [
            Triple(ex("prof"), RDFS.subClassOf, ex("person")),
            Triple(ex("student"), RDFS.subClassOf, ex("person")),
            Triple(ex("alice"), RDF.type, ex("prof")),
            Triple(ex("bob"), RDF.type, ex("student")),
            Triple(ex("carol"), RDF.type, ex("student")),
            Triple(ex("bob"), ex("advisor"), ex("alice")),
            Triple(ex("carol"), ex("advisor"), ex("alice")),
        ]
    )
    e.materialize()
    return e


class TestParsePattern:
    def test_question_mark_becomes_var(self):
        pattern = parse_pattern("?s", "ex:p", "?o")
        assert pattern.subject == Var("s")
        assert pattern.predicate == IRI("ex:p")
        assert pattern.object == Var("o")

    def test_terms_pass_through(self):
        pattern = parse_pattern(ex("a"), RDF.type, Var("t"))
        assert pattern.subject == ex("a")
        assert pattern.object == Var("t")

    def test_variables_list(self):
        pattern = parse_pattern("?a", "?p", "ex:x")
        assert pattern.variables() == [Var("a"), Var("p")]


class TestSinglePattern:
    def test_type_query(self, engine):
        query = Query.parse(("?x", RDF.type, ex("student")))
        rows = query.select(engine, "x")
        assert set(rows) == {(ex("bob"),), (ex("carol"),)}

    def test_inferred_triples_visible(self, engine):
        query = Query.parse(("?x", RDF.type, ex("person")))
        rows = {row[0] for row in query.select(engine, "x")}
        assert rows == {ex("alice"), ex("bob"), ex("carol")}

    def test_variable_predicate(self, engine):
        query = Query.parse((ex("bob"), "?p", "?o"))
        predicates = {row[0] for row in query.select(engine, "p")}
        assert RDF.type in predicates
        assert ex("advisor") in predicates

    def test_fully_ground_ask(self, engine):
        ground = Query.parse((ex("bob"), RDF.type, ex("person")))
        assert len(ground.evaluate(engine)) == 1
        assert len(
            Query.parse((ex("alice"), RDF.type, ex("student"))).evaluate(engine)
        ) == 0


class TestJoins:
    def test_two_pattern_join(self, engine):
        # Students advised by a professor.
        query = Query.parse(
            ("?s", ex("advisor"), "?a"),
            ("?a", RDF.type, ex("prof")),
        )
        rows = query.select(engine, "s")
        assert set(rows) == {(ex("bob"),), (ex("carol"),)}

    def test_join_respects_shared_variable(self, engine):
        # Self-advised people: none.
        query = Query.parse(("?x", ex("advisor"), "?x"))
        assert query.select(engine, "x") == []

    def test_three_pattern_join(self, engine):
        query = Query.parse(
            ("?s", RDF.type, ex("student")),
            ("?s", ex("advisor"), "?a"),
            ("?a", RDF.type, "?at"),
        )
        rows = query.select(engine, "s", "a", "at")
        assert (ex("bob"), ex("alice"), ex("prof")) in rows
        assert (ex("bob"), ex("alice"), ex("person")) in rows

    def test_projection_dedup(self, engine):
        query = Query.parse(
            ("?s", ex("advisor"), "?a"),
        )
        assert query.select(engine, "a") == [(ex("alice"),)]

    def test_no_solutions(self, engine):
        query = Query.parse(
            ("?x", RDF.type, ex("prof")),
            ("?x", ex("advisor"), "?y"),
        )
        assert query.select(engine, "x") == []

    def test_execute_yields_bindings(self, engine):
        query = Query.parse(("?x", RDF.type, ex("prof")))
        solutions = list(query.execute(engine))
        assert solutions == [{Var("x"): ex("alice")}]


class TestValidation:
    def test_empty_query_rejected(self):
        with pytest.raises(ValueError):
            Query([])

    @pytest.mark.parametrize("cls, solutions", [("student", 2), ("none", 0)])
    def test_unknown_projection_variable(self, engine, cls, solutions):
        # Used to be a bare KeyError with solutions, [] without.
        query = Query.parse(("?x", RDF.type, ex(cls)), ("?x", "?p", "?o"))
        assert len(query.select(engine, "x")) == solutions
        for projection in (("x", "who"), (Var("who"),), ("?who",)):
            with pytest.raises(ValueError) as raised:
                query.select(engine, *projection)
            assert "?who" in str(raised.value)
            assert "?x, ?p, ?o" in str(raised.value)

    def test_unknown_projection_variable_through_the_store(self):
        from repro import Store

        store = Store([Triple(ex("a"), ex("p"), ex("b"))])
        for text in ("?s ex:p ?o", "?s ex:q ?o"):
            with pytest.raises(ValueError, match=r"\?x.*\?s, \?o"):
                store.select(text, "s", "x")
            with pytest.raises(ValueError, match=r"\?x.*\?s, \?o"):
                store.snapshot().select(text, "x")
        with pytest.raises(ValueError, match=r"\(none\)"):
            store.select("ex:a ex:p ex:b", "x")
        assert store.select("ex:a ex:p ex:b") == [()]
        assert store.select("ex:a ex:p ex:a") == []

    def test_pattern_selectivity(self):
        # The bound-count ordering lives on in the oracle only.
        from oracle import selectivity

        pattern = TriplePattern(Var("s"), RDF.type, ex("c"))
        assert selectivity(pattern, {}) == 2
        assert selectivity(pattern, {Var("s"): ex("a")}) == 3


class TestParseBGP:
    def test_single_pattern_with_prefix(self):
        from repro.query.bgp import parse_bgp
        from repro.rdf.vocabulary import RDF as RDF_NS

        (pattern,) = parse_bgp("?s rdf:type ex:Person")
        assert pattern.subject == Var("s")
        assert pattern.predicate == RDF_NS.type
        assert pattern.object == IRI("ex:Person")

    def test_a_shorthand_and_angle_iris(self):
        from repro.query.bgp import parse_bgp

        (pattern,) = parse_bgp("<http://ex/s> a <http://ex/C>")
        assert pattern.subject == IRI("http://ex/s")
        assert pattern.predicate == RDF.type
        assert pattern.object == IRI("http://ex/C")

    def test_multiple_statements_dot_and_newline(self):
        from repro.query.bgp import parse_bgp

        by_dot = parse_bgp("?x a ex:C . ?x ex:p ?y")
        by_newline = parse_bgp("?x a ex:C\n?x ex:p ?y")
        trailing = parse_bgp("?x a ex:C.\n?x ex:p ?y .")
        assert by_dot == by_newline == trailing
        assert len(by_dot) == 2

    def test_literals(self):
        from repro.query.bgp import parse_bgp
        from repro.rdf.terms import Literal

        (p1,) = parse_bgp('?x ex:name "Bart"')
        assert p1.object == Literal("Bart")
        (p2,) = parse_bgp(
            '?x ex:age "10"^^<http://www.w3.org/2001/XMLSchema#integer>'
        )
        assert p2.object == Literal(
            "10", "http://www.w3.org/2001/XMLSchema#integer"
        )
        (p3,) = parse_bgp('?x ex:motto "ay\\ncaramba"@es')
        assert p3.object == Literal("ay\ncaramba", None, "es")

    def test_errors(self):
        from repro.query.bgp import BGPSyntaxError, parse_bgp

        with pytest.raises(BGPSyntaxError):
            parse_bgp("?x ex:p")          # 2 terms
        with pytest.raises(BGPSyntaxError):
            parse_bgp("?x ex:p ?y . ?z")  # trailing fragment
        with pytest.raises(BGPSyntaxError):
            parse_bgp("")                 # nothing
        with pytest.raises(BGPSyntaxError):
            parse_bgp("? ex:p ?y")        # unnamed variable

    def test_query_from_parsed_patterns(self, engine):
        from repro.query.bgp import parse_bgp

        query = Query(parse_bgp("?x a ex:person"))
        names = {row[0] for row in query.select(engine, "x")}
        assert names == {ex("alice"), ex("bob"), ex("carol")}
