"""Tests for the θ ablation: SCM-SCO fired as an iterative self-join."""

from repro.core.engine import InferrayEngine
from repro.datasets.chains import chain_closure_size, subclass_chain
from repro.rules.classes import shaped_rule
from repro.rules.table5 import BY_NAME, make_rules


def iterative_rule(name):
    """SCM-SCO's description fired as an iterative self-join."""
    return shaped_rule(name, BY_NAME["SCM-SCO"].description, "theta-iterative")


class TestIterativeTransitivity:
    def test_matches_nuutila_closure_on_chain(self):
        n = 25
        data = subclass_chain(n)
        nuutila = InferrayEngine(make_rules(["SCM-SCO"]))
        nuutila.load_triples(data)
        nuutila.materialize()
        iterative = InferrayEngine(
            [iterative_rule("SCM-SCO-ITER")]
        )
        iterative.load_triples(data)
        stats = iterative.materialize()
        assert set(iterative.triples()) == set(nuutila.triples())
        assert iterative.n_triples == chain_closure_size(n)
        # The iterative variant needs ~log2(n) fixed-point rounds.
        assert stats.iterations > 2

    def test_matches_on_cycle(self):
        from repro.rdf.terms import IRI, Triple
        from repro.rdf.vocabulary import RDFS

        data = [
            Triple(IRI("a"), RDFS.subClassOf, IRI("b")),
            Triple(IRI("b"), RDFS.subClassOf, IRI("a")),
        ]
        iterative = InferrayEngine(
            [iterative_rule("X")]
        )
        iterative.load_triples(data)
        iterative.materialize()
        nuutila = InferrayEngine(make_rules(["SCM-SCO"]))
        nuutila.load_triples(data)
        nuutila.materialize()
        assert set(iterative.triples()) == set(nuutila.triples())

    def test_no_prepass_for_iterative_class(self):
        engine = InferrayEngine(
            [iterative_rule("X")]
        )
        engine.load_triples(subclass_chain(10))
        stats = engine.materialize()
        assert stats.closure_pairs == 0  # no θ pre-pass ran
