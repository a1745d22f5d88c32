"""Tests for the ablation features: iterative θ and the o-s cache flag."""

from repro.core.engine import InferrayEngine
from repro.datasets.chains import chain_closure_size, subclass_chain
from repro.rules.classes import shaped_rule
from repro.rules.table5 import BY_NAME, make_rules
from repro.store.property_table import PropertyTable


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


class TestOsCacheFlag:
    def test_uncached_view_still_correct(self):
        from array import array

        table = PropertyTable(
            array("q", [1, 5, 2, 3]), cache_os=False
        )
        view = table.os_pairs().tolist()  # any backend's pair type
        assert list(zip(view[0::2], view[1::2])) == [(3, 2), (5, 1)]
        assert not table.has_os_cache

    def test_engine_results_identical_without_cache(self):
        data = subclass_chain(30)
        cached = InferrayEngine("rdfs-default")
        cached.load_triples(data)
        cached.materialize()
        uncached = InferrayEngine("rdfs-default", os_cache=False)
        uncached.load_triples(data)
        uncached.materialize()
        assert set(cached.triples()) == set(uncached.triples())

    def test_stats_report_no_cached_views(self):
        engine = InferrayEngine("rdfs-default", os_cache=False)
        engine.load_triples(subclass_chain(20))
        engine.materialize()
        assert engine.main.stats()["os_caches"] == 0
