"""Tests pinning the paper's qualitative claims (see EXPERIMENTS.md)."""

from repro.baselines.hashjoin import HashJoinEngine
from repro.core.engine import InferrayEngine
from repro.datasets.chains import chain_closure_size, subclass_chain
from repro.datasets.lubm import lubm_like
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS


def ex(name):
    return IRI(f"ex:{name}")


class TestNoNewTermsInvariant:
    """§5.1: "inference does not produce new subjects, properties or
    objects — only new combinations"."""

    def test_dictionary_size_unchanged_by_materialization(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(2))
        before = len(engine.dictionary)
        engine.materialize()
        assert len(engine.dictionary) == before

    def test_dense_halves_preserved(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(2))
        engine.materialize()
        d = engine.dictionary
        low, high = d.resource_id_range()
        assert high - low + 1 == d.n_resources  # still gap-free


class TestDuplicateElimination:
    """§2.1: rule firing produces duplicates that the merge removes."""

    def test_raw_emissions_exceed_unique_inferences(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(subclass_chain(40))
        stats = engine.materialize()
        # The closure pre-pass re-emits the asserted edges (dedup'd by
        # the Figure-5 merge); rule firing adds its own duplicates.
        raw = sum(stats.per_rule.values()) + stats.closure_pairs
        assert raw > stats.n_inferred

    def test_rule_level_duplicates_on_mixed_workload(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(2))
        stats = engine.materialize()
        raw = sum(stats.per_rule.values()) + stats.closure_pairs
        assert raw > stats.n_inferred

    def test_store_never_contains_duplicates(self):
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(lubm_like(1))
        engine.materialize()
        triples = list(engine.encoded_triples())
        assert len(triples) == len(set(triples))


class TestClosureScalability:
    """§6.1: closure output is quadratic and the pre-pass handles it."""

    def test_closure_size_exact(self):
        n = 120
        engine = InferrayEngine("rho-df")
        engine.load_triples(subclass_chain(n))
        stats = engine.materialize()
        assert stats.n_total == chain_closure_size(n)
        # A single fixed-point iteration after the pre-pass suffices.
        assert stats.iterations <= 2

    def test_prepass_faster_than_hashjoin_on_chains(self):
        import time

        data = subclass_chain(150)
        engine = InferrayEngine("rho-df")
        engine.load_triples(data)
        started = time.perf_counter()
        engine.materialize()
        inferray_seconds = time.perf_counter() - started

        hashjoin = HashJoinEngine("rho-df")
        hashjoin.load_triples(data)
        started = time.perf_counter()
        hashjoin.materialize()
        hashjoin_seconds = time.perf_counter() - started
        assert inferray_seconds < hashjoin_seconds


class TestRobustnessCorners:
    def test_literal_objects_survive_roundtrip(self):
        engine = InferrayEngine("rdfs-full")
        engine.load_triples(
            [
                Triple(ex("p"), RDFS.domain, ex("C")),
                Triple(ex("x"), ex("p"), Literal("42", language=None)),
            ]
        )
        engine.materialize()
        out = set(engine.triples())
        assert Triple(ex("x"), RDF.type, ex("C")) in out
        # RDFS4 types the literal as a Resource — decodable, if absurd.
        assert Triple(Literal("42"), RDF.type, RDFS.Resource) in out

    def test_blank_nodes_participate(self):
        from repro.rdf.terms import BlankNode

        b = BlankNode("n0")
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(
            [
                Triple(b, RDF.type, ex("C1")),
                Triple(ex("C1"), RDFS.subClassOf, ex("C2")),
            ]
        )
        engine.materialize()
        assert Triple(b, RDF.type, ex("C2")) in set(engine.triples())

    def test_sameas_on_vocabulary_term_is_harmless(self):
        # Pathological but legal: sameAs over a property also used as
        # a predicate — the closure must not corrupt the store.
        engine = InferrayEngine("rdfs-plus")
        engine.load_triples(
            [
                Triple(ex("p"), OWL.sameAs, ex("q")),
                Triple(ex("a"), ex("p"), ex("b")),
                Triple(ex("c"), ex("q"), ex("d")),
            ]
        )
        engine.materialize()
        out = set(engine.triples())
        assert Triple(ex("a"), ex("q"), ex("b")) in out
        assert Triple(ex("c"), ex("p"), ex("d")) in out

    def test_empty_schema_instance_only(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples([Triple(ex("a"), ex("p"), ex("b"))])
        stats = engine.materialize()
        assert stats.n_inferred == 0

    def test_self_referential_schema(self):
        engine = InferrayEngine("rdfs-default")
        engine.load_triples(
            [Triple(RDFS.subClassOf, RDFS.subClassOf, RDFS.subClassOf)]
        )
        stats = engine.materialize()  # must terminate
        assert stats.n_total >= 1
