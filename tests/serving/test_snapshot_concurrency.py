"""Concurrent snapshot reads vs. batched writes (satellite of the
serving PR): readers pinned to an epoch must never observe a partially
flushed closure, and the final closure must be byte-identical across
sequential and thread-parallel stores.
"""

import threading

import pytest

from repro import Store
from repro.rdf import RDF, RDFS, Triple, iri
from repro.serving import ServerThread

EX = "http://example.org/"

#: Executor configurations the interleaving runs under.
CONFIGS = [
    {"workers": 1},
    {"workers": 2},
]


def ex(name):
    return iri(EX + name)


def base_triples():
    triples = [
        Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
        Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
        Triple(ex("dog"), RDFS.subClassOf, ex("mammal")),
    ]
    for index in range(20):
        triples.append(Triple(ex(f"p{index}"), RDF.type, ex("human")))
    return triples


def _run_interleaving(config):
    """Pinned snapshot readers race three coalesced write flushes;
    returns the final closure as a sorted encoded-id list."""
    store = Store(base_triples(), **config)
    store.materialize()
    snapshot = store.snapshot()
    expected_len = snapshot.n_triples
    expected_humans = len(snapshot.solutions(f"?x a <{EX}human>"))

    errors = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            if snapshot.n_triples != expected_len:
                errors.append(("n_triples tore", snapshot.n_triples))
                return
            humans = snapshot.solutions(f"?x a <{EX}human>")
            if len(humans) != expected_humans:
                errors.append(("solutions tore", len(humans)))
                return

    threads = [threading.Thread(target=reader) for _ in range(3)]
    for thread in threads:
        thread.start()
    try:
        # Three coalesced mutation batches, each flushed once: adds,
        # mixed add+remove (forces the rebuild path), adds again.
        store.add(
            [Triple(ex(f"w1_{i}"), RDF.type, ex("dog")) for i in range(10)]
        )
        store.materialize()
        store.add(
            [Triple(ex(f"w2_{i}"), RDF.type, ex("human")) for i in range(10)]
        )
        store.remove(
            [Triple(ex(f"p{i}"), RDF.type, ex("human")) for i in range(5)]
        )
        store.materialize()
        store.add([Triple(ex("last"), RDF.type, ex("dog"))])
        store.materialize()
    finally:
        stop.set()
        for thread in threads:
            thread.join(30)

    assert not errors, errors[:3]
    # The pinned snapshot still serves its original closure untouched.
    assert snapshot.n_triples == expected_len
    assert len(snapshot.solutions(f"?x a <{EX}human>")) == expected_humans
    # And the live store moved on past it.
    assert store.n_triples != expected_len
    assert store.snapshot().epoch > snapshot.epoch
    return sorted(store.encoded_triples())


def test_snapshot_isolation_under_concurrent_batched_writes():
    """Every executor substrate yields byte-identical final closures
    while pinned readers race the flushes."""
    closures = {}
    for config in CONFIGS:
        label = f"workers={config['workers']}"
        closures[label] = _run_interleaving(config)
    baseline_label, baseline = next(iter(closures.items()))
    for label, closure in closures.items():
        assert closure == baseline, (
            f"{label} diverged from {baseline_label}"
        )


def test_served_readers_vs_server_writes_across_modes():
    """The same isolation property through the HTTP server: a reader
    pinned to epoch 1 answers identically before, during and after
    coalesced server-side flushes, for sequential and thread modes."""
    import http.client
    import json
    import urllib.parse

    q = urllib.parse.quote(f"?x a <{EX}mammal>")
    finals = {}
    for config in CONFIGS:
        store = Store(base_triples(), **config)
        with ServerThread(store, port=0) as handle:
            host, port = handle.address
            conn = http.client.HTTPConnection(host, port, timeout=30)

            def get(path):
                conn.request("GET", path)
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            def post(path, body):
                conn.request("POST", path, body=body)
                response = conn.getresponse()
                return response.status, json.loads(response.read())

            _, pinned_before = get(f"/query?q={q}&epoch=1")
            nt = "".join(
                f"<{EX}srv{i}> <{RDF.type.value}> <{EX}dog> .\n"
                for i in range(8)
            )
            status, _ = post("/add?wait=1", nt)
            assert status == 200
            _, live = get(f"/query?q={q}")
            _, pinned_after = get(f"/query?q={q}&epoch=1")
            assert pinned_after == pinned_before
            assert live["n"] == pinned_before["n"] + 8
            conn.close()
        finals[store.engine.parallel_mode] = sorted(
            store.encoded_triples()
        )
    assert finals["sequential"] == finals["thread"]
