"""Machinery-level tests: shape validation, theta pre-pass, misc."""

import pytest

from repro.core.engine import InferrayEngine
from repro.rdf.terms import Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS
from repro.rules.classes import ThetaRule, shaped_rule
from repro.rules.spec import Description
from repro.rules.table5 import make_rules


class TestShapeValidation:
    def test_unsupported_join_head_rejected(self):
        # The head must be built from the two non-join variables.
        with pytest.raises(ValueError):
            shaped_rule("X", Description.of(
                "?c1 subClassOf ?c2 . ?x type ?c1", "?c1 type ?c2"
            ))

    def test_unbound_head_variable_rejected(self):
        with pytest.raises(ValueError):
            shaped_rule("X", Description.of("?x type Datatype", "?y type ?x"))


class TestThetaRule:
    def test_unknown_kind_rejected(self):
        # Neither a constant head predicate nor a marked variable one.
        with pytest.raises(ValueError):
            ThetaRule("X", Description.of(
                "?x ?p ?y . ?y ?p ?z", "?x ?p ?z"
            ))

    def test_prepass_closes_before_iteration(self, ex):
        engine = InferrayEngine(make_rules(["SCM-SCO"]))
        engine.load_triples(
            [
                Triple(ex("a"), RDFS.subClassOf, ex("b")),
                Triple(ex("b"), RDFS.subClassOf, ex("c")),
                Triple(ex("c"), RDFS.subClassOf, ex("d")),
            ]
        )
        stats = engine.materialize()
        assert stats.closure_pairs > 0
        assert Triple(ex("a"), RDFS.subClassOf, ex("d")) in set(
            engine.triples()
        )
        # The fixed point should settle immediately after the pre-pass.
        assert stats.iterations <= 2

    def test_closure_reruns_when_new_edges_appear(self, ex):
        # EQC1 feeds new subClassOf edges *during* iteration; SCM-SCO
        # must still close them (theta re-fires on non-empty deltas).
        engine = InferrayEngine(make_rules(["SCM-SCO", "SCM-EQC1"]))
        engine.load_triples(
            [
                Triple(ex("a"), OWL.equivalentClass, ex("b")),
                Triple(ex("b"), RDFS.subClassOf, ex("c")),
                Triple(ex("c"), RDFS.subClassOf, ex("d")),
            ]
        )
        engine.materialize()
        assert Triple(ex("a"), RDFS.subClassOf, ex("d")) in set(
            engine.triples()
        )

    def test_newly_marked_transitive_property(self, ex):
        # The transitive marker itself arrives via CAX-SCO during the
        # fixed point; PRP-TRP must pick the property up then.
        engine = InferrayEngine(
            make_rules(["PRP-TRP", "CAX-SCO"])
        )
        engine.load_triples(
            [
                Triple(ex("T"), RDFS.subClassOf, OWL.TransitiveProperty),
                Triple(ex("p"), RDF.type, ex("T")),
                Triple(ex("a"), ex("p"), ex("b")),
                Triple(ex("b"), ex("p"), ex("c")),
            ]
        )
        engine.materialize()
        assert Triple(ex("a"), ex("p"), ex("c")) in set(engine.triples())

    def test_sameas_closure_materialises_clique(self, ex):
        engine = InferrayEngine(make_rules(["EQ-TRANS", "EQ-SYM"]))
        engine.load_triples(
            [
                Triple(ex("a"), OWL.sameAs, ex("b")),
                Triple(ex("b"), OWL.sameAs, ex("c")),
            ]
        )
        engine.materialize()
        out = set(engine.triples())
        for x in ("a", "b", "c"):
            for y in ("a", "b", "c"):
                assert Triple(ex(x), OWL.sameAs, ex(y)) in out


class TestSameAsInteraction:
    def test_sameas_copies_property_tables_both_ways(self, ex):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(
            [
                Triple(ex("a"), OWL.sameAs, ex("b")),
                Triple(ex("a"), ex("p"), ex("v")),
                Triple(ex("w"), ex("q"), ex("b")),
            ]
        )
        engine.materialize()
        out = set(engine.triples())
        assert Triple(ex("b"), ex("p"), ex("v")) in out  # EQ-REP-S
        assert Triple(ex("w"), ex("q"), ex("a")) in out  # EQ-REP-O

    def test_sameas_predicate_substitution(self, ex):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(
            [
                Triple(ex("s0"), ex("p1"), ex("o0")),
                Triple(ex("s1"), ex("p2"), ex("o1")),
                Triple(ex("p1"), OWL.sameAs, ex("p2")),
            ]
        )
        engine.materialize()
        out = set(engine.triples())
        assert Triple(ex("s1"), ex("p1"), ex("o1")) in out
        assert Triple(ex("s0"), ex("p2"), ex("o0")) in out


class TestRuleStatsTracking:
    def test_per_rule_counters_populate(self, ex):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(
            [
                Triple(ex("c1"), RDFS.subClassOf, ex("c2")),
                Triple(ex("x"), RDF.type, ex("c1")),
            ]
        )
        stats = engine.materialize()
        assert stats.per_rule.get("CAX-SCO", 0) >= 1
