"""The engine's one fixed-point driver, through each of its set-ups.

``InferrayEngine._fixed_point`` is reached four ways — a batch run and
an incremental flush, each over the full or the hybrid (reduced)
catalogue.  Everything the driver owns (iteration cap, deadline,
stats, the materialized flag) must behave the same whichever set-up
called it.
"""

import pytest

from repro.core.engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationTimeout,
)
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS


def ex(name):
    return IRI(f"ex:{name}")


# PRP-DOM / PRP-RNG stay materialized in hybrid mode, so both catalogues
# derive types here in iteration 1 and need a second one to stop.
BASE = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("hasPet"), RDFS.domain, ex("human")),
    Triple(ex("hasPet"), RDFS.range, ex("mammal")),
    Triple(ex("hasDog"), RDFS.subPropertyOf, ex("hasPet")),
    Triple(ex("Bart"), ex("hasDog"), ex("Santa")),
]
EXTRA = [
    Triple(ex("Lisa"), ex("hasPet"), ex("Snowball")),
    Triple(ex("animal"), RDFS.subClassOf, ex("being")),
]
#: A domain on rdf:type routes inference into an absorbed table.
GUARD_TRIPPER = Triple(RDF.type, RDFS.domain, ex("typed"))

SETUPS = [
    pytest.param(mode, incremental, id=f"{kind}-{mode}")
    for incremental, kind in ((False, "batch"), (True, "incremental"))
    for mode in ("full", "hybrid")
]


def closure(engine):
    decode = engine.dictionary.decode_triple
    return {decode(encoded) for encoded in engine.read_view.triples()}


def reference_closure(triples):
    engine = InferrayEngine("rdfs-default")
    engine.load_triples(triples)
    engine.materialize()
    return closure(engine)


def make_engine(mode):
    return InferrayEngine("rdfs-default", materialize_mode=mode)


def run_setup(mode, incremental, *, sabotage=None, **run_options):
    """Drive one set-up; ``sabotage(engine)`` runs just before the
    flush under test.  Returns (engine, flush outcome or exception)."""
    engine = make_engine(mode)
    engine.load_triples(BASE)
    if incremental:
        engine.materialize()
    if sabotage is not None:
        sabotage(engine)
    try:
        if incremental:
            return engine, engine.materialize_incremental(
                EXTRA, **run_options
            )
        engine.load_triples(EXTRA)
        return engine, engine.materialize(**run_options)
    except (FixedPointError, MaterializationTimeout) as error:
        return engine, error


@pytest.mark.parametrize("mode, incremental", SETUPS)
class TestEverySetup:
    def test_closure_matches_a_from_scratch_run(self, mode, incremental):
        engine, _ = run_setup(mode, incremental)
        assert engine.is_materialized
        assert closure(engine) == reference_closure(BASE + EXTRA)

    def test_stats_are_filled_the_same_way(self, mode, incremental):
        engine, stats = run_setup(mode, incremental)
        assert engine.stats is stats
        assert stats.materialize_mode == mode
        assert stats.iterations >= 2
        assert sum(stats.per_rule.values()) > 0
        assert set(stats.per_rule_seconds) >= set(stats.per_rule)
        assert stats.n_total == engine.main.n_triples
        assert stats.n_inferred == stats.n_total - stats.n_input > 0
        assert (stats.absorbed_rules != []) == (mode == "hybrid")
        assert stats.hybrid_fallback is None

    def test_iteration_cap_raises_and_recovers(self, mode, incremental):
        def cap(engine):
            engine.max_iterations = 1

        engine, error = run_setup(mode, incremental, sabotage=cap)
        assert isinstance(error, FixedPointError)
        self.assert_aborted_then_recovers(engine)

    def test_timeout_raises_and_recovers(self, mode, incremental):
        engine, error = run_setup(mode, incremental, timeout_seconds=1e-12)
        assert isinstance(error, MaterializationTimeout)
        assert "iteration" in str(error)
        self.assert_aborted_then_recovers(engine)

    @staticmethod
    def assert_aborted_then_recovers(engine):
        assert not engine.is_materialized
        engine.max_iterations = 10_000
        engine.materialize()
        assert engine.is_materialized
        assert closure(engine) == reference_closure(BASE + EXTRA)


@pytest.mark.parametrize("mode", ["full", "hybrid"])
def test_incremental_stats_count_only_derived_triples(mode):
    """``n_input`` includes the asserted delta, so ``n_inferred`` is what
    the rules derived; ``engine.stats`` is the incremental run's record."""
    engine = make_engine(mode)
    engine.load_triples(BASE)
    first = engine.materialize()
    before = engine.main.n_triples
    # No rule of the catalogue has anything to say about this triple.
    stats = engine.materialize_incremental(
        [Triple(ex("Bart"), ex("likes"), ex("jazz"))]
    )
    assert engine.stats is stats and stats is not first
    assert stats.n_input == stats.n_total == before + 1
    assert stats.n_inferred == 0

    stats = engine.materialize_incremental(EXTRA)
    assert engine.stats is stats
    assert stats.n_input == before + 1 + len(EXTRA)
    assert stats.n_inferred == stats.n_total - stats.n_input > 0


@pytest.mark.parametrize("incremental", [False, True])
def test_tripped_schema_guard_falls_back_to_the_full_catalogue(incremental):
    engine = make_engine("hybrid")
    engine.load_triples(BASE)
    if incremental:
        # The store holds only the reduced closure when the guard
        # trips, so the fallback has to complete it, not just the delta.
        assert engine.materialize().absorbed_rules
        stats = engine.materialize_incremental([GUARD_TRIPPER])
    else:
        engine.load_triples([GUARD_TRIPPER])
        stats = engine.materialize()
    assert "reserved RDFS property" in stats.hybrid_fallback
    assert engine.hybrid_fallback_reason == stats.hybrid_fallback
    assert stats.materialize_mode == "hybrid"
    assert stats.absorbed_rules == []
    assert engine.read_view is engine.main
    assert engine.stats is stats
    assert closure(engine) == reference_closure(BASE + [GUARD_TRIPPER])
