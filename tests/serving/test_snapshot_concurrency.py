"""Concurrent snapshot reads vs. batched writes: readers pinned to an
epoch must never observe a partially flushed closure, and the final
closure must be the one a from-scratch store of the survivors holds.
"""

import threading

from repro import Store
from repro.rdf import RDF, RDFS, Triple, iri
from repro.serving import ServerThread

EX = "http://example.org/"

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


FIRST_ADDS = [Triple(ex(f"w1_{i}"), RDF.type, ex("dog")) for i in range(10)]
SECOND_ADDS = [Triple(ex(f"w2_{i}"), RDF.type, ex("human")) for i in range(10)]
REMOVES = [Triple(ex(f"p{i}"), RDF.type, ex("human")) for i in range(5)]
LAST_ADD = Triple(ex("last"), RDF.type, ex("dog"))


def _run_interleaving():
    """Pinned snapshot readers race three coalesced write flushes;
    returns the store."""
    store = Store(base_triples())
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
        store.add(FIRST_ADDS)
        store.materialize()
        store.add(SECOND_ADDS)
        store.remove(REMOVES)
        store.materialize()
        store.add([LAST_ADD])
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
    return store


def test_snapshot_isolation_under_concurrent_batched_writes():
    """Pinned readers never see a torn closure while the flushes run,
    and the store ends where a rebuild of the survivors starts."""
    store = _run_interleaving()
    removed = set(REMOVES)
    survivors = [t for t in base_triples() if t not in removed]
    rebuild = Store(survivors + FIRST_ADDS + SECOND_ADDS + [LAST_ADD])
    assert set(store.triples()) == set(rebuild.triples())


def test_served_readers_vs_server_writes():
    """The same isolation property through the HTTP server: a reader
    pinned to epoch 1 answers identically before, during and after
    coalesced server-side flushes."""
    import http.client
    import json
    import urllib.parse

    q = urllib.parse.quote(f"?x a <{EX}mammal>")
    store = Store(base_triples())
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
