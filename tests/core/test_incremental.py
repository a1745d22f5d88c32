"""Tests for incremental materialization (extension feature)."""

import pytest

from repro.core.engine import InferrayEngine
from repro.datasets.chains import subclass_chain
from repro.datasets.lubm import lubm_like
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS


def contains(engine, triple):
    """Whether the engine's closure holds ``triple`` (its read view)."""
    return any(engine.query(*triple))


def ex(name):
    return IRI(f"ex:{name}")


def batch_closure(ruleset, *batches):
    engine = InferrayEngine(ruleset)
    for batch in batches:
        engine.load_triples(batch)
    engine.materialize()
    return set(engine.triples())


class TestIncrementalEquivalence:
    def test_simple_addition(self):
        base = [
            Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
            Triple(ex("Bart"), RDF.type, ex("human")),
        ]
        extra = [Triple(ex("mammal"), RDFS.subClassOf, ex("animal"))]
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(base)
        engine.materialize()
        stats = engine.materialize_incremental(extra)
        assert stats.n_inferred >= 2  # the edge + propagated types
        assert set(engine.triples()) == batch_closure(
            "rdfs-default", base, extra
        )

    def test_theta_delta_reclosure(self):
        # New subclass edge must re-close the hierarchy.
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(subclass_chain(20))
        engine.materialize()
        bridge = [
            Triple(
                IRI("http://example.org/chain/n19"),
                RDFS.subClassOf,
                IRI("http://example.org/other"),
            )
        ]
        engine.materialize_incremental(bridge)
        assert set(engine.triples()) == batch_closure(
            "rdfs-default", subclass_chain(20), bridge
        )
        # Every chain node now reaches the new class.
        assert contains(engine,
            Triple(
                IRI("http://example.org/chain/n0"),
                RDFS.subClassOf,
                IRI("http://example.org/other"),
            )
        )

    def test_rdfs_plus_sameas_addition(self):
        base = [
            Triple(ex("a"), ex("p"), ex("v")),
            Triple(ex("b"), ex("q"), ex("w")),
        ]
        extra = [Triple(ex("a"), OWL.sameAs, ex("b"))]
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(base)
        engine.materialize()
        engine.materialize_incremental(extra)
        assert set(engine.triples()) == batch_closure(
            "rdfs-plus", base, extra
        )
        assert contains(engine, Triple(ex("b"), ex("p"), ex("v")))

    def test_generated_workload_equivalence(self):
        base = lubm_like(2)
        extra = lubm_like(1, seed=99)
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(base)
        engine.materialize()
        engine.materialize_incremental(extra)
        assert set(engine.triples()) == batch_closure(
            "rdfs-plus", base, extra
        )

    def test_duplicate_addition_is_noop(self):
        base = subclass_chain(10)
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(base)
        engine.materialize()
        before = engine.n_triples
        stats = engine.materialize_incremental(base)
        assert stats.n_inferred == 0
        assert engine.n_triples == before

    def test_new_transitive_marker_incrementally(self):
        base = [
            Triple(ex("a"), ex("p"), ex("b")),
            Triple(ex("b"), ex("p"), ex("c")),
        ]
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(base)
        engine.materialize()
        assert not contains(engine, Triple(ex("a"), ex("p"), ex("c")))
        engine.materialize_incremental(
            [Triple(ex("p"), RDF.type, OWL.TransitiveProperty)]
        )
        assert contains(engine, Triple(ex("a"), ex("p"), ex("c")))

    def test_requires_prior_materialization(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(subclass_chain(5))
        with pytest.raises(RuntimeError):
            engine.materialize_incremental([])


class TestIncrementalEdgeCases:
    """materialize_incremental boundary behaviour (Store-facing)."""

    def test_empty_delta(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(subclass_chain(10))
        engine.materialize()
        before = set(engine.triples())
        stats = engine.materialize_incremental([])
        assert stats.n_inferred == 0
        assert stats.iterations == 0
        assert set(engine.triples()) == before

    def test_delta_that_only_rederives_existing(self):
        # Assert a triple the closure already contains as an inference:
        # nothing new may be derived, and the closure must not change.
        base = [
            Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
            Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
            Triple(ex("Bart"), RDF.type, ex("human")),
        ]
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(base)
        engine.materialize()
        derived = Triple(ex("Bart"), RDF.type, ex("animal"))
        assert contains(engine, derived)
        before = set(engine.triples())
        stats = engine.materialize_incremental([derived])
        assert stats.n_inferred == 0
        assert set(engine.triples()) == before

    def test_store_interleaved_add_remove_equals_batch(self):
        """Equivalence through the Store API: interleaved add/remove
        flushes must land on the batch closure of the survivors."""
        from repro.core.store_api import Store

        base = [
            Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
            Triple(ex("Bart"), RDF.type, ex("human")),
            Triple(ex("Lisa"), RDF.type, ex("human")),
        ]
        store = Store(base)
        store.materialize()                      # full build
        extra1 = Triple(ex("mammal"), RDFS.subClassOf, ex("animal"))
        extra2 = Triple(ex("Maggie"), RDF.type, ex("human"))
        store.add(extra1)
        assert store.n_triples                   # flush: incremental
        store.remove(Triple(ex("Lisa"), RDF.type, ex("human")))
        store.add(extra2)
        survivors = [base[0], base[1], extra1, extra2]
        assert set(store.triples()) == batch_closure(
            "rdfs-default", survivors
        )
        # And once more purely incrementally on the rebuilt base.
        extra3 = Triple(ex("animal"), RDFS.subClassOf, ex("being"))
        store.add(extra3)
        assert set(store.triples()) == batch_closure(
            "rdfs-default", survivors, [extra3]
        )
