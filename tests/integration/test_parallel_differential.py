"""Differential proof for the parallel rule scheduler.

For every ruleset × kernel backend × worker count × materialize mode,
the closure on the thread pool must be *identical on encoded ids* to
the sequential (``workers=1``) run — not just set-equal after decoding:
the committed pair arrays themselves must match byte for byte, which
is the scheduler's determinism guarantee (sort+dedup makes the commit
a pure function of the emitted set, and the commit order is fixed).
In hybrid mode the stored arrays are the reduced closure and the
encoded answers come through the engine's read view.

Datasets: a BSBM-like instance-heavy workload, a LUBM-like ontology
workload, and a θ-heavy chain mix (subClassOf + transitive property +
sameAs) that exercises the closure pre-pass under every scheduler
configuration.  All generators are deterministic (seeded), so encoded
ids are stable across engine builds within one process.
"""

import pytest

from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.datasets.chains import (
    sameas_chain,
    subclass_chain,
    transitive_property_chain,
)
from repro.datasets.lubm import lubm_like
from repro.rules.rulesets import RULESET_NAMES

WORKER_COUNTS = (1, 2, 4)

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

#: (dataset, ruleset, backend, mode) → the workers=1 reference run.
_REFERENCE = {}


def _materialize(dataset_key, ruleset, backend, workers, mode="full"):
    engine = InferrayEngine(
        ruleset,
        backend=backend,
        workers=workers,
        parallel_mode="thread",
        materialize_mode=mode,
    )
    engine.load_triples(DATASETS[dataset_key])
    stats = engine.materialize()
    encoded = frozenset(engine.read_view.triples())
    table_bytes = tuple(
        (pid, bytes(flat.tobytes()))
        for pid, flat in engine.main.table_arrays()
    )
    return encoded, table_bytes, stats


def _reference(dataset_key, ruleset, backend, mode):
    key = (dataset_key, ruleset, backend, mode)
    if key not in _REFERENCE:
        _REFERENCE[key] = _materialize(
            dataset_key, ruleset, backend, 1, mode
        )
    return _REFERENCE[key]


def _assert_matches_reference(
    dataset_key, ruleset, backend, run, mode="full"
):
    ref_encoded, ref_tables, ref_stats = _reference(
        dataset_key, ruleset, backend, mode
    )
    encoded, tables, stats = run
    assert stats.n_waves >= 1
    assert stats.materialize_mode == mode
    assert stats.hybrid_fallback == ref_stats.hybrid_fallback
    # Same fixed point, same number of iterations to reach it.
    assert stats.iterations == ref_stats.iterations
    assert encoded == ref_encoded
    # Byte-identical committed pair arrays, property by property.
    assert tables == ref_tables


@pytest.mark.parametrize("dataset_key", sorted(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ruleset", RULESET_NAMES)
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_closure_equals_sequential(
    dataset_key, ruleset, backend, workers
):
    run = _materialize(dataset_key, ruleset, backend, workers)
    assert run[2].workers == workers
    _assert_matches_reference(dataset_key, ruleset, backend, run)


@pytest.mark.parametrize("dataset_key", sorted(DATASETS))
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("ruleset", RULESET_NAMES)
@pytest.mark.parametrize("workers", (2, 4))
def test_hybrid_parallel_closure_equals_sequential(
    dataset_key, ruleset, backend, workers
):
    """The reduced catalogue (or its full fallback) on threads."""
    run = _materialize(dataset_key, ruleset, backend, workers, "hybrid")
    stats = run[2]
    assert stats.workers == workers
    assert stats.parallel_mode == "thread"
    _assert_matches_reference(dataset_key, ruleset, backend, run, "hybrid")


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", (2, 4))
def test_parallel_incremental_equals_sequential_batch(backend, workers):
    """The incremental path also schedules rules; closures must agree."""
    first = DATASETS["bsbm"][:40]
    second = DATASETS["bsbm"][40:]

    parallel = InferrayEngine(
        "rdfs-default",
        backend=backend,
        workers=workers,
        parallel_mode="thread",
    )
    parallel.load_triples(first)
    parallel.materialize()
    parallel.materialize_incremental(second)

    sequential = InferrayEngine("rdfs-default", backend=backend, workers=1)
    sequential.load_triples(list(first) + list(second))
    sequential.materialize()

    assert frozenset(parallel.main.triples()) == frozenset(
        sequential.main.triples()
    )


@pytest.mark.parametrize("workers", (2, 4))
def test_cross_backend_parallel_closures_decode_identically(workers):
    """Every backend under the same worker count decodes alike."""
    closures = []
    for backend in BACKENDS:
        engine = InferrayEngine(
            "rdfs-plus", backend=backend, workers=workers
        )
        engine.load_triples(DATASETS["chains"])
        engine.materialize()
        closures.append(set(engine.triples()))
    assert len(closures) >= 2
    assert all(closure == closures[0] for closure in closures[1:])
