"""Tests for retraction (full re-materialization) and memory accounting."""

import pytest

from repro.core.engine import InferrayEngine
from repro.datasets.chains import subclass_chain
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS


def contains(engine, triple):
    """Whether the engine's closure holds ``triple`` (its read view)."""
    return any(engine.query(*triple))


def ex(name):
    return IRI(f"ex:{name}")


BASE = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
]


class TestRetraction:
    def test_retract_removes_consequences(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(BASE)
        engine.materialize()
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("animal")))
        engine.retract_and_rematerialize(
            [Triple(ex("mammal"), RDFS.subClassOf, ex("animal"))]
        )
        assert not contains(engine,
            Triple(ex("Bart"), RDF.type, ex("animal"))
        )
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("mammal")))

    def test_retract_inferred_triple_is_noop(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(BASE)
        engine.materialize()
        before = set(engine.triples())
        # (Bart type mammal) is inferred, not asserted: retraction only
        # removes asserted triples, so the closure is unchanged.
        self.assert_no_work(
            engine, before, [Triple(ex("Bart"), RDF.type, ex("mammal"))]
        )

    def test_retract_unknown_triple_is_noop(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(BASE)
        engine.materialize()
        before = set(engine.triples())
        self.assert_no_work(
            engine, before, [Triple(ex("nobody"), RDF.type, ex("nothing"))]
        )

    @staticmethod
    def assert_no_work(engine, before, triples):
        """Removing nothing asserted must not rebuild or re-derive."""
        main, last_run = engine.main, engine.stats
        stats = engine.retract_and_rematerialize(triples)
        assert engine.main is main
        assert engine.is_materialized
        assert engine.stats is last_run
        assert stats.iterations == 0 and stats.n_inferred == 0
        assert stats.n_total == len(before)
        assert set(engine.triples()) == before
        engine.retract(triples)
        assert engine.main is main and engine.is_materialized

    def test_retract_everything(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(BASE)
        engine.materialize()
        engine.retract_and_rematerialize(BASE)
        assert engine.n_triples == 0
        assert engine.n_asserted == 0

    def test_equivalent_to_fresh_engine(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(BASE)
        engine.materialize()
        engine.retract_and_rematerialize([BASE[0]])

        fresh = InferrayEngine("rdfs-default")
        fresh.load_triples(BASE[1:])
        fresh.materialize()
        assert set(engine.triples()) == set(fresh.triples())


#: The flat layouts, whose pairs take 16 bytes; named rather than taken
#: from the environment, which may pick the compressed kernels.
FLAT_BACKENDS = ["python", "numpy"]


class TestMemoryAccounting:
    @pytest.mark.parametrize("backend", FLAT_BACKENDS)
    def test_memory_grows_with_closure(self, backend):
        engine = InferrayEngine("rho-df", backend=backend)
        engine.load_triples(subclass_chain(50))
        before = engine.memory_bytes()
        engine.materialize()
        after = engine.memory_bytes()
        assert after > before
        # 16 bytes per pair, at least the closure size.
        assert after >= 16 * engine.n_triples

    def test_n_asserted_tracks_loads(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(BASE)
        assert engine.n_asserted == 3
        engine.materialize()
        engine.materialize_incremental(
            [Triple(ex("Lisa"), RDF.type, ex("human"))]
        )
        assert engine.n_asserted == 4
