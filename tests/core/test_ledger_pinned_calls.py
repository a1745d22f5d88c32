"""The calls the pipeline ledger (benchmarks/pipeline/) still makes of
the retired rule executor, pinned until the ledger stops making them.

``layers.py`` builds ``InferrayEngine(..., workers=2,
parallel_mode="thread")`` and closes engines; ``stages.py`` reads
``stats.workers`` / ``stats.parallel_mode`` and closes its store.
Rules always fire inline, so each of these must still work and change
nothing.
"""

import warnings

import pytest

from repro.core.engine import InferrayEngine
from repro.core.store_api import Store
from repro.datasets.bsbm import bsbm_like
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS

DATA = bsbm_like(60)


def closed(engine):
    engine.load_triples(DATA)
    stats = engine.materialize()
    tables = [(pid, flat.tobytes()) for pid, flat in engine.main.table_arrays()]
    return tables, stats


def test_executor_keywords_warn_and_change_nothing():
    reference, _ = closed(InferrayEngine("rdfs-default"))
    with pytest.warns(DeprecationWarning, match="ignored"):
        engine = InferrayEngine("rdfs-default", workers=2,
                                parallel_mode="thread")
    tables, stats = closed(engine)
    assert tables == reference
    assert stats.workers == 1
    assert stats.parallel_mode == "sequential"


@pytest.mark.parametrize("workers", [None, 1])
def test_the_default_worker_count_does_not_warn(workers):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        InferrayEngine("rdfs-default", workers=workers)


def test_close_twice_leaves_engine_and_store_usable():
    engine = InferrayEngine("rdfs-default")
    engine.close()
    engine.close()
    closed(engine)
    assert engine.is_materialized

    bart = Triple(IRI("ex:Bart"), RDF.type, IRI("ex:human"))
    store = Store([Triple(IRI("ex:human"), RDFS.subClassOf, IRI("ex:mammal")),
                   bart])
    with store:
        store.close()
    store.close()
    lisa = Triple(IRI("ex:Lisa"), RDF.type, IRI("ex:human"))
    store.add([lisa])
    store.remove([bart])
    assert Triple(IRI("ex:Lisa"), RDF.type, IRI("ex:mammal")) in store
    assert Triple(IRI("ex:Bart"), RDF.type, IRI("ex:mammal")) not in store
