"""Differential proof for hybrid mode: answers identical to full mode.

The correctness bar for ``Store(materialize="hybrid")`` is byte-equal
*query answers* — not equal stored closures; the stored closure is
exactly what the mode shrinks.  Coverage: the conformance fixture
corpus (every ruleset directive), the differential datasets × kernel
backends × worker counts, BGP solutions, snapshots, incremental adds,
removals, the schema-of-schema guard fallback, and the
``$REPRO_MATERIALIZE`` environment default.
"""

import os

import pytest

from repro.core.store_api import Store, StoreConfig
from repro.datasets.bsbm import bsbm_like
from repro.datasets.chains import (
    subclass_chain,
    subclass_tree,
    subproperty_chain,
)
from repro.datasets.lubm import lubm_like
from repro.rdf.ntriples import parse_file
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS

FIXTURE_DIR = os.path.join(
    os.path.dirname(__file__), "..", "fixtures", "conformance"
)

BACKENDS = ["python", "numpy"]

DATASETS = {
    "bsbm": bsbm_like(40),
    "lubm": lubm_like(1),
    "hierarchy": (
        subclass_tree(4)
        + subclass_chain(8)
        + subproperty_chain(6)
        + [
            Triple(
                IRI(f"http://example.org/inst/i{i}"),
                RDF.type,
                IRI(f"http://example.org/tree/n{7 + i}"),
            )
            for i in range(8)
        ]
        + [
            Triple(
                IRI(f"http://example.org/fact/s{i}"),
                IRI("http://example.org/pchain/n0"),
                IRI(f"http://example.org/fact/o{i}"),
            )
            for i in range(5)
        ]
        + [
            Triple(
                IRI("http://example.org/pchain/n5"),
                RDFS.domain,
                IRI("http://example.org/tree/n0"),
            )
        ]
    ),
}


def fixture_names():
    return sorted(
        name[: -len(".in.nt")]
        for name in os.listdir(FIXTURE_DIR)
        if name.endswith(".in.nt")
    )


def fixture_ruleset(in_path):
    with open(in_path, encoding="utf-8") as handle:
        first = handle.readline()
    if first.startswith("#") and "ruleset:" in first:
        return first.split("ruleset:")[1].strip()
    return "rdfs-default"


def answer_set(store):
    return sorted(triple.n3() for triple in store.triples())


@pytest.mark.parametrize("name", fixture_names())
def test_conformance_fixtures_hybrid_equals_full(name):
    in_path = os.path.join(FIXTURE_DIR, f"{name}.in.nt")
    ruleset = fixture_ruleset(in_path)
    full = Store.from_file(in_path, ruleset=ruleset, materialize="full")
    hybrid = Store.from_file(in_path, ruleset=ruleset, materialize="hybrid")
    assert answer_set(hybrid) == answer_set(full)
    assert hybrid.n_triples == full.n_triples


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("ruleset", ("rdfs-default", "rho-df"))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_differential_datasets(dataset, ruleset, workers, backend):
    data = DATASETS[dataset]
    kwargs = dict(ruleset=ruleset, backend=backend, workers=workers)
    full = Store(data, materialize="full", **kwargs)
    hybrid = Store(data, materialize="hybrid", **kwargs)
    assert answer_set(hybrid) == answer_set(full)
    # Point queries agree triple by triple.
    for triple in full.triples():
        assert triple in hybrid
    # Hierarchy-heavy data must actually shrink the stored closure.
    if dataset == "hierarchy" and not hybrid.hybrid_fallback:
        assert hybrid.engine.main.n_triples < full.engine.main.n_triples


def test_bgp_solutions_identical():
    data = DATASETS["hierarchy"]
    full = Store(data, materialize="full")
    hybrid = Store(data, materialize="hybrid")
    for bgp in (
        "?s rdf:type ?c",
        "?a rdfs:subClassOf ?b",
        "?s <http://example.org/pchain/n5> ?o",
        "?s rdf:type <http://example.org/tree/n0>",
    ):
        full_solutions = sorted(
            tuple(sorted((k, v.n3()) for k, v in s.items()))
            for s in full.solutions(bgp)
        )
        hybrid_solutions = sorted(
            tuple(sorted((k, v.n3()) for k, v in s.items()))
            for s in hybrid.solutions(bgp)
        )
        assert hybrid_solutions == full_solutions, bgp


def test_snapshot_serves_hybrid_answers():
    data = DATASETS["hierarchy"]
    hybrid = Store(data, materialize="hybrid")
    full = Store(data, materialize="full")
    snap = hybrid.snapshot()
    reference = answer_set(full)
    assert sorted(t.n3() for t in snap.triples()) == reference
    # The snapshot must survive later writes unchanged.
    hybrid.add(
        Triple(
            IRI("http://example.org/inst/late"),
            RDF.type,
            IRI("http://example.org/tree/n3"),
        )
    )
    hybrid.materialize()
    assert sorted(t.n3() for t in snap.triples()) == reference
    assert hybrid.n_triples > snap.n_triples


def test_incremental_adds_match_batch():
    base = DATASETS["hierarchy"]
    extra_schema = Triple(
        IRI("http://example.org/chain/n7"),
        RDFS.subClassOf,
        IRI("http://example.org/tree/n0"),
    )
    extra_instance = Triple(
        IRI("http://example.org/inst/new"),
        RDF.type,
        IRI("http://example.org/chain/n0"),
    )
    incremental = Store(base, materialize="hybrid")
    incremental.materialize()
    incremental.add(extra_schema)
    incremental.materialize()
    incremental.add(extra_instance)
    batch = Store(
        list(base) + [extra_schema, extra_instance], materialize="full"
    )
    assert answer_set(incremental) == answer_set(batch)


def test_removal_rebuilds_correctly():
    data = DATASETS["hierarchy"]
    target = data[0]
    hybrid = Store(data, materialize="hybrid")
    hybrid.materialize()
    hybrid.remove(target)
    full = Store([t for t in data if t != target], materialize="full")
    assert answer_set(hybrid) == answer_set(full)


def test_schema_of_schema_guard_falls_back():
    tricky = list(DATASETS["hierarchy"]) + [
        Triple(
            IRI("http://example.org/myRel"),
            RDFS.subPropertyOf,
            RDFS.subClassOf,
        ),
        Triple(
            IRI("http://example.org/X"),
            IRI("http://example.org/myRel"),
            IRI("http://example.org/Y"),
        ),
        Triple(
            IRI("http://example.org/thing"),
            RDF.type,
            IRI("http://example.org/X"),
        ),
    ]
    hybrid = Store(tricky, materialize="hybrid")
    full = Store(tricky, materialize="full")
    assert answer_set(hybrid) == answer_set(full)
    assert hybrid.hybrid_fallback is not None
    assert hybrid.absorbed_rules == ()


def test_no_absorbable_ruleset_falls_back():
    data = DATASETS["hierarchy"]
    hybrid = Store(data, ruleset="rdfs-full", materialize="hybrid")
    full = Store(data, ruleset="rdfs-full", materialize="full")
    assert answer_set(hybrid) == answer_set(full)
    assert "no absorbable rules" in (hybrid.hybrid_fallback or "")


def test_env_variable_sets_default_mode(monkeypatch):
    monkeypatch.setenv("REPRO_MATERIALIZE", "hybrid")
    store = Store(DATASETS["hierarchy"])
    assert store.materialize_mode == "hybrid"
    store.materialize()
    assert len(store.absorbed_rules) == 8
    # An explicit option always beats the environment.
    explicit = Store(DATASETS["hierarchy"], materialize="full")
    assert explicit.materialize_mode == "full"
    monkeypatch.setenv("REPRO_MATERIALIZE", "bogus")
    with pytest.raises(ValueError):
        Store(materialize=None).materialize_mode  # resolved in make_engine


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        Store(materialize="partial")
    with pytest.raises(ValueError):
        StoreConfig(materialize="partial").resolved_materialize
