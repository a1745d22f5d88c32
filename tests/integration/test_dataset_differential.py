"""Differential proof over the differential datasets: every route to a
closure commits the same thing.

For every dataset × ruleset × kernel backend, the closure reached by a
batch run is the reference, and each other route must reach it:

* a second, independent run commits *byte-identical* pair arrays in
  the same number of iterations — the commit is a pure function of the
  emitted set (sort + dedup, fixed commit order), in full and in hybrid
  mode;
* hybrid mode's read view serves the full closure on encoded ids;
* a batch over the first half plus an incremental flush of the second
  decodes to the batch closure of both;
* a delete through DRed (or its rebuild fallback) leaves what
  ``retract`` + ``materialize`` leaves, and decodes to a from-scratch
  run over the survivors;
* a saved store file reloads to the same pair arrays;
* every backend commits the same pair arrays for the same input.

Datasets: a BSBM-like instance-heavy workload, a LUBM-like ontology
workload, and a θ-heavy chain mix (subClassOf + transitive property +
sameAs) that exercises the closure pre-pass.  All generators are
deterministic (seeded), so encoded ids are stable across engine builds
within one process.
"""

import pytest

from repro.core.engine import InferrayEngine
from repro.core.store_api import Store
from repro.datasets.bsbm import bsbm_like
from repro.datasets.chains import (
    sameas_chain,
    subclass_chain,
    transitive_property_chain,
)
from repro.datasets.lubm import lubm_like
from repro.rules.rulesets import RULESET_NAMES

BACKENDS = ["python", "numpy", "compressed"]

DATASETS = {
    "bsbm": bsbm_like(60),
    "lubm": lubm_like(1),
    "chains": (
        subclass_chain(10)
        + transitive_property_chain(7)
        + sameas_chain(4)
    ),
}

#: (dataset, ruleset, backend, mode) → the batch reference run.
_REFERENCE = {}


def tables_of(engine):
    """Every committed pair array, property by property, as plain ints
    (backend-neutral, so runs on different backends compare)."""
    return tuple(
        (pid, tuple(flat.tolist())) for pid, flat in engine.main.table_arrays()
    )


def snapshot(engine, stats):
    encoded = frozenset(engine.read_view.triples())
    return {
        "encoded": encoded,
        "tables": tables_of(engine),
        "decoded": frozenset(map(engine.dictionary.decode_triple, encoded)),
        "iterations": stats.iterations,
        "fallback": stats.hybrid_fallback,
    }


def materialized(dataset_key, ruleset, backend, mode="full"):
    engine = InferrayEngine(ruleset, backend=backend, materialize_mode=mode)
    engine.load_triples(DATASETS[dataset_key])
    stats = engine.materialize()
    assert stats.materialize_mode == mode
    return engine, stats


def reference(dataset_key, ruleset, backend, mode="full"):
    key = (dataset_key, ruleset, backend, mode)
    if key not in _REFERENCE:
        _REFERENCE[key] = snapshot(
            *materialized(dataset_key, ruleset, backend, mode)
        )
    return _REFERENCE[key]


def grid(test):
    """Parametrize ``test`` over every dataset × backend × ruleset."""
    for name, values in (
        ("dataset_key", sorted(DATASETS)),
        ("backend", BACKENDS),
        ("ruleset", RULESET_NAMES),
    ):
        test = pytest.mark.parametrize(name, values)(test)
    return test


@grid
@pytest.mark.parametrize("mode", ["full", "hybrid"])
def test_rerun_commits_identical_tables(dataset_key, ruleset, backend, mode):
    ref = reference(dataset_key, ruleset, backend, mode)
    run = snapshot(*materialized(dataset_key, ruleset, backend, mode))
    assert run["fallback"] == ref["fallback"]
    # Same fixed point, same number of iterations to reach it.
    assert run["iterations"] == ref["iterations"]
    assert run["encoded"] == ref["encoded"]
    # Byte-identical committed pair arrays, property by property.
    assert run["tables"] == ref["tables"]


@grid
def test_hybrid_read_view_serves_the_full_closure(
    dataset_key, ruleset, backend
):
    full = reference(dataset_key, ruleset, backend, "full")
    hybrid = reference(dataset_key, ruleset, backend, "hybrid")
    assert hybrid["encoded"] == full["encoded"]
    assert hybrid["decoded"] == full["decoded"]


@grid
def test_incremental_flush_equals_batch(dataset_key, ruleset, backend):
    data = DATASETS[dataset_key]
    half = len(data) // 2
    engine = InferrayEngine(ruleset, backend=backend)
    engine.load_triples(data[:half])
    engine.materialize()
    engine.materialize_incremental(data[half:])
    assert engine.is_materialized
    assert frozenset(engine.triples()) == reference(
        dataset_key, ruleset, backend
    )["decoded"]


@grid
def test_delete_equals_rebuild(dataset_key, ruleset, backend):
    data = DATASETS[dataset_key]
    victims = data[::7]
    engine, _ = materialized(dataset_key, ruleset, backend)
    engine.retract_and_rematerialize(victims)
    assert engine.is_materialized

    rebuilt, _ = materialized(dataset_key, ruleset, backend)
    rebuilt.retract(victims)
    rebuilt.materialize()
    assert tables_of(engine) == tables_of(rebuilt)
    assert list(engine.asserted_column) == list(rebuilt.asserted_column)

    victim_set = set(victims)
    fresh = InferrayEngine(ruleset, backend=backend)
    fresh.load_triples([t for t in data if t not in victim_set])
    fresh.materialize()
    assert frozenset(engine.triples()) == frozenset(fresh.triples())


@grid
def test_saved_store_reloads_identical_tables(
    dataset_key, ruleset, backend, tmp_path
):
    store = Store(
        DATASETS[dataset_key],
        ruleset=ruleset,
        backend=backend,
        materialize="full",
    )
    path = str(tmp_path / "closure.store")
    assert store.save(path) > 0
    loaded = Store.load(path, backend=backend)
    assert tables_of(loaded.engine) == reference(
        dataset_key, ruleset, backend
    )["tables"]
    assert frozenset(loaded.triples()) == reference(
        dataset_key, ruleset, backend
    )["decoded"]


@pytest.mark.parametrize("dataset_key", sorted(DATASETS))
@pytest.mark.parametrize("ruleset", RULESET_NAMES)
@pytest.mark.parametrize("mode", ["full", "hybrid"])
def test_every_backend_commits_the_same_tables(dataset_key, ruleset, mode):
    first, *others = (
        reference(dataset_key, ruleset, backend, mode) for backend in BACKENDS
    )
    for other in others:
        assert other["iterations"] == first["iterations"]
        assert other["tables"] == first["tables"]
        assert other["decoded"] == first["decoded"]
