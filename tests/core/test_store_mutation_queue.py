"""Store mutation-queue correctness: flush-failure safety, remove()
semantics, and the closure epoch counter.

Regression coverage for the bugs the serving layer would hammer:
``_refresh()`` used to clear the pending queues *before* running
inference, so a ``MaterializationTimeout`` (or any flush error)
silently lost the writes; ``remove()`` rebuilt the pending-adds list
once per input triple and counted no-op retractions.
"""

import pytest

from repro import MaterializationTimeout, Store
from repro.rdf import RDF, RDFS, Triple, iri

EX = "http://example.org/"


def ex(name):
    return iri(EX + name)


def base_triples():
    return [
        Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
        Triple(ex("Bart"), RDF.type, ex("human")),
    ]


def person(name):
    return Triple(ex(name), RDF.type, ex("human"))


# ----------------------------------------------------------------------
# Flush-failure safety
# ----------------------------------------------------------------------
def test_failed_incremental_flush_keeps_delta_and_stale():
    """An error raised before the engine absorbs the delta restores
    the pending queue; nothing is lost and the store stays stale."""
    store = Store(base_triples())
    store.materialize()
    lisa = person("Lisa")
    store.add(lisa)

    original = store._engine.materialize_incremental

    def boom(*args, **kwargs):
        raise MaterializationTimeout("injected")

    store._engine.materialize_incremental = boom
    with pytest.raises(MaterializationTimeout):
        store.materialize()
    assert store.stale
    assert store._pending_adds == [lisa]

    store._engine.materialize_incremental = original
    store.materialize()
    assert not store.stale
    assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in store


def test_real_timeout_during_incremental_flush_recovers():
    """A genuine MaterializationTimeout mid-flush (delta already
    absorbed by the engine) leaves the store stale, and the next
    flush completes the closure with the delta intact."""
    from dataclasses import replace

    store = Store(base_triples())
    store.materialize()
    store.config = replace(store.config, timeout_seconds=0.0)
    store.add(person("Lisa"))
    with pytest.raises(MaterializationTimeout):
        store.materialize()
    assert store.stale
    store.config = replace(store.config, timeout_seconds=None)
    store.materialize()
    assert not store.stale
    assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in store
    # The recovered closure is identical to a never-failed one.
    clean = Store(base_triples() + [person("Lisa")])
    assert set(store.triples()) == set(clean.triples())


def test_failed_retract_flush_restores_both_queues():
    store = Store(base_triples() + [person("Maggie")])
    store.materialize()
    lisa = person("Lisa")
    maggie = person("Maggie")
    store.add(lisa)
    store.remove(maggie)

    original = store._engine.retract_and_rematerialize

    def boom(*args, **kwargs):
        raise MaterializationTimeout("injected")

    store._engine.retract_and_rematerialize = boom
    with pytest.raises(MaterializationTimeout):
        store.materialize()
    assert store.stale
    assert store._pending_adds == [lisa]
    assert store._pending_removes == [maggie]

    store._engine.retract_and_rematerialize = original
    store.materialize()
    assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in store
    assert maggie not in store
    clean = Store(base_triples() + [lisa])
    assert set(store.triples()) == set(clean.triples())


def test_failed_first_materialization_keeps_initial_load():
    """Even the very first flush (load + materialize) must not lose
    the loaded triples when inference times out."""
    from dataclasses import replace

    store = Store(base_triples(), timeout_seconds=0.0)
    with pytest.raises(MaterializationTimeout):
        store.materialize()
    assert store.stale
    store.config = replace(store.config, timeout_seconds=None)
    store.materialize()
    assert Triple(ex("Bart"), RDF.type, ex("mammal")) in store


def test_reads_after_failed_flush_retry_and_serve_the_delta():
    """A read (not just materialize()) drives the retry path too."""
    store = Store(base_triples())
    store.materialize()
    store.add(person("Lisa"))

    original = store._engine.materialize_incremental
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 1:
            raise MaterializationTimeout("injected")
        return original(*args, **kwargs)

    store._engine.materialize_incremental = flaky
    with pytest.raises(MaterializationTimeout):
        store.n_triples
    assert store.stale
    clean = Store(base_triples() + [person("Lisa")])
    assert store.n_triples == clean.n_triples  # retried and flushed on this read
    assert not store.stale
    assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in store


# ----------------------------------------------------------------------
# remove() semantics
# ----------------------------------------------------------------------
def test_remove_unknown_triple_counts_zero():
    store = Store(base_triples())
    store.materialize()
    assert store.remove(person("Nobody")) == 0
    assert store._pending_removes == []
    assert not store.stale


def test_remove_inferred_triple_counts_zero():
    store = Store(base_triples())
    store.materialize()
    inferred = Triple(ex("Bart"), RDF.type, ex("mammal"))
    assert inferred in store
    assert store.remove(inferred) == 0
    assert inferred in store  # retracting inferences is a no-op


def test_remove_dequeues_every_pending_copy_in_one_pass():
    store = Store()
    lisa = person("Lisa")
    store.add([lisa, lisa, person("Maggie"), lisa])
    assert store.remove(lisa) == 1
    assert store._pending_adds == [person("Maggie")]


def test_remove_counts_asserted_and_pending_but_not_unknown():
    store = Store(base_triples())
    store.materialize()
    lisa = person("Lisa")
    store.add(lisa)
    count = store.remove([person("Bart"), lisa, person("Nobody")])
    assert count == 2  # Bart retraction + Lisa dequeue; Nobody no-op
    assert store._pending_adds == []
    assert store._pending_removes == [person("Bart")]


def test_remove_duplicate_inputs_count_once():
    store = Store(base_triples())
    store.materialize()
    bart = person("Bart")
    assert store.remove([bart, bart, bart]) == 1
    assert store._pending_removes == [bart]
    store.materialize()
    assert bart not in store


def test_remove_empty_iterable():
    store = Store(base_triples())
    assert store.remove([]) == 0


def test_remove_then_flush_matches_fresh_store():
    store = Store(base_triples() + [person("Maggie")])
    store.materialize()
    store.remove(person("Maggie"))
    store.materialize()
    clean = Store(base_triples())
    assert set(store.triples()) == set(clean.triples())


# ----------------------------------------------------------------------
# Epochs
# ----------------------------------------------------------------------
def test_epoch_bumps_only_on_successful_flushes():
    store = Store(base_triples())
    assert store._epoch == 0
    store.materialize()
    assert store._epoch == 1
    store.materialize()  # nothing pending: no new epoch
    assert store._epoch == 1
    store.add(person("Lisa"))
    assert store._epoch == 1  # lazy: not flushed yet
    snapshot = store.snapshot()  # flushes
    assert store._epoch == 2
    assert snapshot.epoch == 2

    store.add(person("Maggie"))
    original = store._engine.materialize_incremental

    def boom(*args, **kwargs):
        raise MaterializationTimeout("injected")

    store._engine.materialize_incremental = boom
    with pytest.raises(MaterializationTimeout):
        store.materialize()
    assert store._epoch == 2  # failed flush publishes nothing
    store._engine.materialize_incremental = original
    store.materialize()
    assert store._epoch == 3


def test_snapshots_carry_their_epoch_across_later_writes():
    store = Store(base_triples())
    first = store.snapshot()
    store.add(person("Lisa"))
    second = store.snapshot()
    assert (first.epoch, second.epoch) == (1, 2)
    assert first.n_triples < second.n_triples
