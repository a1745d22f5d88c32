"""Deletion by delete-and-rederive (DRed) ≡ a rebuild.

A delete through :meth:`InferrayEngine.retract_and_rematerialize` must
leave the closure and the asserted column a rebuild (``retract`` then
``materialize``) leaves, on every backend and ruleset, and must record
which route ran: ``dred`` where it applies, ``rebuild`` with a reason
where it does not.  A flush that fails in any DRed phase must lose
nothing: the next flush reaches the rebuild's closure.
"""

import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.engine as engine_module
from repro.core.engine import InferrayEngine, MaterializationTimeout
from repro.core.store_api import Store
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS
from repro.rules.rulesets import get_ruleset
from repro.rules.spec import Rule


sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "integration"))
from test_incremental_property import schema_and_data  # noqa: E402

RULESETS = ["rdfs-default", "rho-df", "rdfs-plus", "rdfs-plus-full"]
BACKENDS = ["python", "compressed", "numpy"]


def ex(name):
    return IRI(f"ex:{name}")


def contains(engine, triple):
    """Whether the engine's closure holds ``triple`` (its read view)."""
    return any(engine.query(*triple))


def closed(engine, triples, ruleset="rdfs-default", backend="auto", **kw):
    engine = engine or InferrayEngine(ruleset, backend=backend, **kw)
    engine.load_triples(triples)
    engine.materialize()
    return engine


def state(engine):
    """Every stored table, pair by pair, and the asserted column."""
    tables = [
        (pid, list(pairs.tolist())) for pid, pairs in engine.main.table_arrays()
    ]
    return tables, list(engine.asserted_column)


def rebuilt(triples, victims, ruleset, backend, **kw):
    engine = closed(None, triples, ruleset, backend, **kw)
    engine.retract(victims)
    engine.materialize()
    return engine


def delete(triples, victims, ruleset="rdfs-default", backend="auto", **kw):
    """(stats of the delete, the engine) after deleting ``victims``."""
    engine = closed(None, triples, ruleset, backend, **kw)
    stats = engine.retract_and_rematerialize(victims)
    assert state(engine) == state(rebuilt(triples, victims, ruleset, backend))
    assert engine.is_materialized
    return stats, engine


@pytest.fixture()
def unbounded(monkeypatch):
    """Lift the overdeletion bound, so small stores delete by DRed."""
    monkeypatch.setattr(engine_module, "DRED_MAX_OVERDELETE_SHARE", 1.0)


# ----------------------------------------------------------------------
# Differential: DRed ≡ rebuild
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ruleset", RULESETS)
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(base=schema_and_data(), data=st.data())
def test_delete_equals_rebuild(ruleset, backend, base, data):
    victims = data.draw(
        st.lists(st.sampled_from(base), min_size=1, max_size=4, unique=True)
    )
    with mock.patch.object(engine_module, "DRED_MAX_OVERDELETE_SHARE", 1.0):
        stats, _ = delete(base, victims, ruleset, backend)
    record = stats.deletion
    assert record["route"] in ("dred", "rebuild")
    assert record["removed"] == len(victims)
    if record["route"] == "dred":
        assert record["reason"] is None
    else:
        assert "re-closes" in record["reason"]


# ----------------------------------------------------------------------
# The route taken
# ----------------------------------------------------------------------
SCHEMA = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("knows"), RDFS.domain, ex("human")),
    Triple(ex("knows"), RDFS.range, ex("human")),
]
BART = Triple(ex("Bart"), RDF.type, ex("human"))
BART_MAMMAL = Triple(ex("Bart"), RDF.type, ex("mammal"))
LISA = Triple(ex("Lisa"), RDF.type, ex("human"))
KNOWS = Triple(ex("Bart"), ex("knows"), ex("Lisa"))
PEOPLE = [BART, LISA, KNOWS, Triple(ex("Lisa"), ex("knows"), ex("Maggie"))]


@pytest.mark.usefixtures("unbounded")
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ruleset", RULESETS)
def test_instance_deletes_take_dred(ruleset, backend):
    for victims in ([BART], [KNOWS], [BART, KNOWS], PEOPLE):
        stats, engine = delete(SCHEMA + PEOPLE, victims, ruleset, backend)
        assert stats.deletion["route"] == "dred", stats.deletion
        assert stats.deletion["overdeleted"] >= len(victims)


@pytest.mark.usefixtures("unbounded")
@pytest.mark.parametrize("backend", BACKENDS)
def test_derivable_victim_is_rederived(backend):
    # Bart is a mammal twice over: asserted, and as a human.
    stats, engine = delete(
        SCHEMA + PEOPLE + [BART_MAMMAL], [BART_MAMMAL], backend=backend
    )
    assert stats.deletion["route"] == "dred"
    assert stats.deletion["rederived"] >= 1
    assert contains(engine, BART_MAMMAL)
    assert not engine.asserted_column.contains(
        [engine.dictionary.ids_of(BART_MAMMAL)]
    )[0]


@pytest.mark.usefixtures("unbounded")
@pytest.mark.parametrize("backend", BACKENDS)
def test_victim_asserted_twice_goes_entirely(backend):
    stats, engine = delete(
        SCHEMA + PEOPLE + [LISA], [LISA], backend=backend
    )
    assert stats.deletion["route"] == "dred"
    assert stats.deletion["removed"] == 1
    assert engine.n_asserted == len(SCHEMA + PEOPLE) - 1
    # Lisa is still a human: she is known by Bart (knows' range).
    assert contains(engine, LISA)


def test_small_deletes_take_dred_under_the_real_bound():
    padding = [
        Triple(ex(f"pad{i}"), ex("next"), ex(f"pad{i + 1}"))
        for i in range(400)
    ]
    stats, _ = delete(SCHEMA + PEOPLE + padding, [BART])
    assert stats.deletion["route"] == "dred"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "ruleset,extra,victim,rule",
    [
        ("rdfs-default", [], SCHEMA[1], "SCM-SCO"),
        (
            "rdfs-plus",
            [
                Triple(ex("ancestor"), RDF.type, OWL.TransitiveProperty),
                Triple(ex("a"), ex("ancestor"), ex("b")),
                Triple(ex("b"), ex("ancestor"), ex("c")),
            ],
            Triple(ex("ancestor"), RDF.type, OWL.TransitiveProperty),
            "PRP-TRP",
        ),
        (
            "rdfs-plus",
            [
                Triple(ex("email"), RDF.type,
                       OWL.InverseFunctionalProperty),
                Triple(ex("a"), ex("email"), ex("mail")),
                Triple(ex("b"), ex("email"), ex("mail")),
            ],
            Triple(ex("a"), ex("email"), ex("mail")),
            "EQ-TRANS",
        ),
    ],
    ids=["subClassOf-edge", "transitive-marker", "sameAs-from-IFP"],
)
def test_theta_deletes_rebuild(backend, ruleset, extra, victim, rule):
    with mock.patch.object(engine_module, "DRED_MAX_OVERDELETE_SHARE", 1.0):
        stats, _ = delete(SCHEMA + PEOPLE + extra, [victim], ruleset, backend)
    assert stats.deletion["route"] == "rebuild"
    assert stats.deletion["reason"].startswith(f"{rule} re-closes")


class NoOp(Rule):
    """A custom rule with no description (it derives nothing)."""

    def __init__(self):
        super().__init__("NO-OP")

    def apply(self, ctx):
        pass


def test_rule_without_description_rebuilds(unbounded):
    rules = get_ruleset("rdfs-default") + [NoOp()]
    engine = closed(None, SCHEMA + PEOPLE, rules)
    stats = engine.retract_and_rematerialize([BART])
    assert stats.deletion["route"] == "rebuild"
    assert stats.deletion["reason"] == "rule 'NO-OP' has no description"
    assert state(engine) == state(
        rebuilt(SCHEMA + PEOPLE, [BART], rules, "auto")
    )


def test_large_overdeletion_rebuilds():
    stats, _ = delete(SCHEMA + PEOPLE, [BART, LISA, KNOWS])
    assert stats.deletion["route"] == "rebuild"
    assert "past the DRed share" in stats.deletion["reason"]
    assert stats.deletion["overdeleted"] > (
        engine_module.DRED_MAX_OVERDELETE_SHARE * len(SCHEMA + PEOPLE)
    )


def test_rebuild_after_overdelete_keeps_the_deletes_budget():
    # The overdelete stops at SCM-SCO having spent the whole budget: the
    # rebuild it falls back to must not start a clock of its own.
    engine = closed(None, SCHEMA + PEOPLE)
    overdelete = engine._overdelete

    def slow_overdelete(*args):
        found = overdelete(*args)
        time.sleep(0.2)
        return found

    with mock.patch.object(engine, "_overdelete", slow_overdelete):
        with pytest.raises(MaterializationTimeout):
            engine.retract_and_rematerialize([SCHEMA[1]], timeout_seconds=0.1)
    assert not engine.is_materialized
    engine.materialize()
    assert state(engine) == state(
        rebuilt(SCHEMA + PEOPLE, [SCHEMA[1]], "rdfs-default", "auto")
    )


def test_unmaterialized_engine_rebuilds(unbounded):
    engine = InferrayEngine("rdfs-default")
    engine.load_triples(SCHEMA + PEOPLE)
    stats = engine.retract_and_rematerialize([BART])
    assert stats.deletion["route"] == "rebuild"
    assert stats.deletion["reason"] == "no closure to maintain"
    assert engine.last_deletion is stats.deletion


def test_store_route_follows_the_entailment_mode(unbounded):
    """Full mode deletes by DRed; hybrid mode (the default under
    ``REPRO_MATERIALIZE=hybrid``) rebuilds, and says so."""
    store = Store(SCHEMA + PEOPLE)
    store.materialize()
    store.remove(BART)
    stats = store.materialize()
    if store.materialize_mode == "hybrid":
        assert stats.deletion["route"] == "rebuild"
        assert stats.deletion["reason"].startswith("hybrid mode")
    else:
        assert stats.deletion["route"] == "dred"
    assert store.engine.last_deletion is stats.deletion
    clean = Store(SCHEMA + PEOPLE[1:])
    assert set(store.triples()) == set(clean.triples())


# ----------------------------------------------------------------------
# Failure atomicity
# ----------------------------------------------------------------------
class Injected(RuntimeError):
    pass


def boom(*args, **kwargs):
    raise Injected("injected")


@pytest.fixture()
def store(unbounded):
    store = Store(SCHEMA + PEOPLE, materialize="full")
    store.materialize()
    return store


def reference():
    return set(Store(SCHEMA + PEOPLE[1:], materialize="full").triples())


def test_failed_overdelete_requeues_the_removes(store):
    engine = store.engine
    closure, asserted = engine.main, engine.asserted_column
    store.remove(BART)
    with mock.patch.object(engine.scheduler, "run_iteration", boom):
        with pytest.raises(Injected):
            store.materialize()
    assert engine.main is closure and engine.asserted_column is asserted
    assert engine.is_materialized
    assert store.stale and store._pending_removes == [BART]
    assert store.materialize().deletion["route"] == "dred"
    assert set(store.triples()) == reference()


def test_failed_rederive_requeues_the_removes(store):
    engine = store.engine
    closure = engine.main
    store.remove(BART)
    with mock.patch.object(engine_module, "derivable", boom):
        with pytest.raises(Injected):
            store.materialize()
    assert engine.main is closure and engine.is_materialized
    assert store._pending_removes == [BART]
    assert store.materialize().deletion["route"] == "dred"
    assert set(store.triples()) == reference()


def test_failed_reclose_is_finished_by_the_next_flush(store):
    engine = store.engine
    rederive = engine._rederive

    def rederive_then_break(*args):
        delta = rederive(*args)
        assert delta  # the re-close has iterations to fail in
        engine.scheduler.run_iteration = boom
        return delta

    store.remove(BART)
    with mock.patch.object(engine, "_rederive", rederive_then_break):
        with pytest.raises(Injected):
            store.materialize()
    del engine.scheduler.run_iteration
    # The asserted set was swapped: nothing to re-queue, and the engine
    # is stale over part of the new closure.
    assert store._pending_removes == []
    assert not engine.is_materialized and store.stale
    assert set(store.triples()) == reference()
    assert state(engine) == state(
        rebuilt(SCHEMA + PEOPLE, [BART], "rdfs-default", "auto")
    )
