"""Unit tests for InferrayEngine (Algorithm 1)."""

import pytest

from repro.core.engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationTimeout,
)
from repro.datasets.chains import subclass_chain
from repro.rdf.ntriples import write_file
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS


def contains(engine, triple):
    """Whether the engine's closure holds ``triple`` (its read view)."""
    return any(engine.query(*triple))


def ex(name):
    return IRI(f"ex:{name}")


INTRO = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
    Triple(ex("Lisa"), RDF.type, ex("human")),
]


class TestMaterialize:
    def test_paper_intro_example(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(INTRO)
        stats = engine.materialize()
        out = set(engine.triples())
        assert Triple(ex("human"), RDFS.subClassOf, ex("animal")) in out
        assert Triple(ex("Bart"), RDF.type, ex("mammal")) in out
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in out
        assert Triple(ex("Lisa"), RDF.type, ex("animal")) in out
        assert stats.n_input == 4
        assert stats.n_inferred == 5
        assert stats.n_total == 9

    def test_empty_input(self):
        engine = InferrayEngine()
        stats = engine.materialize()
        assert stats.n_total == 0
        assert stats.iterations == 0

    def test_idempotent(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(INTRO)
        engine.materialize()
        first = set(engine.triples())
        again = engine.materialize()
        assert again.n_inferred == 0
        assert set(engine.triples()) == first

    def test_incremental_load_then_rematerialize(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(INTRO)
        engine.materialize()
        engine.load_triples([Triple(ex("Maggie"), RDF.type, ex("human"))])
        engine.materialize()
        assert contains(engine,
            Triple(ex("Maggie"), RDF.type, ex("animal"))
        )

    def test_stats_timings_populated(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(subclass_chain(50))
        stats = engine.materialize()
        assert stats.total_seconds > 0
        assert stats.closure_pairs == 50 * 49 // 2
        assert stats.triples_per_second > 0

    def test_max_iterations_guard(self):
        engine = InferrayEngine("rdfs-default", max_iterations=0)
        engine.load_triples(INTRO)
        with pytest.raises(FixedPointError):
            engine.materialize()

    def test_timeout_raises(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(subclass_chain(200))
        with pytest.raises(MaterializationTimeout):
            engine.materialize(timeout_seconds=-1.0)

    def test_custom_rule_list(self):
        from repro.rules.table5 import make_rules

        engine = InferrayEngine(make_rules(["CAX-SCO"]))
        assert engine.ruleset_name == "custom"
        engine.load_triples(INTRO)
        engine.materialize()
        assert contains(engine, Triple(ex("Bart"), RDF.type, ex("mammal")))
        # SCM-SCO absent: no schema closure.
        assert not contains(engine,
            Triple(ex("human"), RDFS.subClassOf, ex("animal"))
        )


class TestQueriesAndViews:
    def setup_method(self):
        self.engine = InferrayEngine("rdfs-default")
        self.engine.load_triples(INTRO)
        self.engine.materialize()

    def test_len(self):
        assert self.engine.n_triples == 9

    def test_contains(self):
        assert contains(self.engine, Triple(ex("Bart"), RDF.type, ex("animal")))
        assert not contains(self.engine,
            Triple(ex("animal"), RDF.type, ex("Bart"))
        )
        assert not contains(self.engine,
            Triple(ex("unknown"), RDF.type, ex("human"))
        )

    def test_query_wildcards(self):
        types_of_bart = set(self.engine.query(ex("Bart"), RDF.type, None))
        assert len(types_of_bart) == 3

    def test_query_unknown_term_empty(self):
        assert list(self.engine.query(ex("nope"), None, None)) == []

    def test_encoded_triples_consistent(self):
        encoded = list(self.engine.main.triples())
        assert len(encoded) == 9
        decode = self.engine.dictionary.decode_triple
        assert [decode(t) for t in encoded] == list(self.engine.triples())


class TestFileLoading:
    def test_load_file(self, tmp_path):
        path = str(tmp_path / "intro.nt")
        triples = [
            Triple(IRI("http://ex/human"), RDFS.subClassOf,
                   IRI("http://ex/mammal")),
            Triple(IRI("http://ex/Bart"), RDF.type, IRI("http://ex/human")),
        ]
        write_file(triples, path)
        engine = InferrayEngine("rdfs-default")
        assert engine.load_file(path) == 2
        engine.materialize()
        assert contains(engine,
            Triple(IRI("http://ex/Bart"), RDF.type, IRI("http://ex/mammal"))
        )
