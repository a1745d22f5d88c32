"""Tests for the live-Store bytes/triple probe (repro.memsim.probe)."""

import pytest

from repro.core.store_api import Store
from repro.datasets.bsbm import bsbm_like
from repro.memsim import StoreMemoryReport, measure_store

BACKENDS = ["python", "compressed", "numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def test_measure_store_reports_consistent_totals(backend):
    store = Store(bsbm_like(200), backend=backend)
    report = measure_store(store)
    assert isinstance(report, StoreMemoryReport)
    assert report.backend == backend
    assert report.n_triples == store.n_triples
    assert report.n_tables == len(report.tables)
    assert report.resident_bytes == sum(
        t.resident_bytes for t in report.tables
    )
    assert report.resident_bytes > 0
    assert report.bytes_per_triple == pytest.approx(
        report.resident_bytes / report.n_triples
    )


def test_flat_bytes_counts_logical_image(backend):
    store = Store(bsbm_like(200), backend=backend)
    report = measure_store(store)
    # flat_bytes is what a raw int64 image (plus materialized ⟨o,s⟩
    # views) would occupy — identical across backends by construction.
    expected = 0
    for table in report.tables:
        expected += 16 * table.n_pairs * (2 if table.has_os_cache else 1)
    assert report.flat_bytes == expected


def test_compressed_backend_shrinks_resident_bytes():
    flat = measure_store(Store(bsbm_like(500), backend="python"))
    packed = measure_store(Store(bsbm_like(500), backend="compressed"))
    assert packed.n_triples == flat.n_triples
    assert packed.resident_bytes < flat.resident_bytes / 4
    assert packed.compression_ratio > 4.0
    assert packed.inner_backend in ("python", "numpy")


def test_probe_accepts_engine_and_snapshot(backend):
    store = Store(bsbm_like(200), backend=backend)
    via_store = measure_store(store)
    via_engine = measure_store(store.engine)
    assert via_engine.resident_bytes == via_store.resident_bytes
    snapshot = store.snapshot()
    via_snapshot = measure_store(snapshot)
    assert via_snapshot.n_triples == via_store.n_triples


def test_snapshot_shares_structure_with_live_store():
    # A snapshot of an unchanged compressed store aliases the same
    # runs; its own probe still reports full residency (fresh ``seen``
    # per call), but the shared-block ids prove the aliasing.
    store = Store(bsbm_like(300), backend="compressed")
    store.materialize()
    snapshot = store.snapshot()
    live = {
        block
        for _, flat in store.engine.main.table_arrays()
        for block in map(id, flat._blocks)
    }
    snap = {
        block
        for _, flat in snapshot._tables.table_arrays()
        for block in map(id, flat._blocks)
    }
    assert snap and snap <= live


def test_as_dict_is_json_ready(backend):
    import json

    report = measure_store(Store(bsbm_like(100), backend=backend))
    payload = report.as_dict()
    round_tripped = json.loads(json.dumps(payload))
    assert round_tripped["backend"] == backend
    assert round_tripped["n_triples"] == report.n_triples
    assert round_tripped["resident_bytes"] == report.resident_bytes
    # as_dict rounds ratios to 3 decimals for report readability
    assert round_tripped["compression_ratio"] == pytest.approx(
        report.compression_ratio, abs=5e-4
    )


def test_probe_flushes_pending_mutations():
    from repro.rdf.terms import IRI, Triple

    store = Store(bsbm_like(100), backend="compressed")
    before = measure_store(store).n_triples
    store.add(Triple(IRI("ex:s"), IRI("ex:p"), IRI("ex:o")))
    after = measure_store(store)
    assert after.n_triples > before
