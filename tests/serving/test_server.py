"""End-to-end reasoning-server tests over real sockets.

Each test boots a :class:`ServerThread` on an ephemeral port and talks
real HTTP/1.1 through ``http.client`` — the same path ``curl`` and the
bench load generator use.
"""

import http.client
import json
import socket
import threading
import time
import urllib.parse

import pytest

from repro import MaterializationTimeout, Store
from repro.rdf import RDF, RDFS, Triple, iri
from repro.serving import ServerThread

EX = "http://example.org/"
MAMMAL_Q = urllib.parse.quote(f"?who a <{EX}mammal>")


def ex(name):
    return iri(EX + name)


def base_triples():
    return [
        Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
        Triple(ex("dog"), RDFS.subClassOf, ex("mammal")),
        Triple(ex("Bart"), RDF.type, ex("human")),
    ]


def nt(subject, type_name="human"):
    return f"<{EX}{subject}> <{RDF.type.value}> <{EX}{type_name}> .\n"


class Client:
    """A tiny keep-alive JSON client over http.client."""

    def __init__(self, address):
        host, port = address
        self.conn = http.client.HTTPConnection(host, port, timeout=30)

    def request(self, method, path, body=None):
        self.conn.request(method, path, body=body)
        response = self.conn.getresponse()
        raw = response.read()
        headers = {k.lower(): v for k, v in response.getheaders()}
        payload = None
        if headers.get("content-type", "").startswith("application/json"):
            payload = json.loads(raw)
        return response.status, headers, payload if payload is not None else raw

    def close(self):
        self.conn.close()


@pytest.fixture()
def served():
    store = Store(base_triples())
    with ServerThread(store, port=0, retained_epochs=4) as handle:
        client = Client(handle.address)
        yield store, handle, client
        client.close()


def _mammals(client, epoch=None):
    path = f"/query?q={MAMMAL_Q}"
    if epoch is not None:
        path += f"&epoch={epoch}"
    status, _, payload = client.request("GET", path)
    return status, payload


def test_health_stats_metrics(served):
    _, _, client = served
    status, _, payload = client.request("GET", "/health")
    assert status == 200
    assert payload["status"] == "ok"
    assert payload["epoch"] == 1
    assert payload["n_triples"] > len(base_triples())  # inference ran

    status, _, payload = client.request("GET", "/stats")
    assert status == 200
    assert payload["ruleset"] == "rdfs-default"
    assert payload["queue"]["capacity"] == 256
    assert payload["flush"]["failures"] == 0

    status, headers, body = client.request("GET", "/metrics")
    assert status == 200
    assert headers["content-type"].startswith("text/plain")
    text = body.decode("utf-8")
    assert "repro_serving_epoch 1" in text
    assert "repro_serving_staleness_seconds 0.0" in text


def test_query_add_remove_round_trip(served):
    _, _, client = served
    status, payload = _mammals(client)
    assert status == 200
    assert payload["epoch"] == 1
    assert payload["n"] == 1

    status, _, payload = client.request("POST", "/add?wait=1", nt("Lisa"))
    assert status == 200
    assert payload == {"flushed": 1, "epoch": 2}

    status, payload = _mammals(client)
    assert payload["epoch"] == 2
    assert {s["who"] for s in payload["solutions"]} == {
        f"<{EX}Bart>",
        f"<{EX}Lisa>",
    }

    status, _, payload = client.request(
        "POST", "/remove?wait=1", nt("Lisa")
    )
    assert status == 200
    assert payload["epoch"] == 3
    status, payload = _mammals(client)
    assert payload["n"] == 1


def test_add_body_splits_lines_as_a_file_does(served):
    # A bare CR ends a line and an opening byte-order mark is skipped,
    # as when the same text is loaded from a file.
    _, _, client = served
    body = "\ufeff" + nt("Lisa").replace("\n", "\r") + nt("Maggie")
    status, _, payload = client.request(
        "POST", "/add?wait=1", body.encode("utf-8")
    )
    assert status == 200, payload
    status, payload = _mammals(client)
    assert {s["who"] for s in payload["solutions"]} == {
        f"<{EX}{name}>" for name in ("Bart", "Lisa", "Maggie")
    }


def test_stats_reports_the_last_deletion_route():
    # Padding keeps one person's overdeletion a small share of the store.
    padding = [
        Triple(ex(f"pad{i}"), ex("next"), ex(f"pad{i + 1}"))
        for i in range(400)
    ]
    store = Store(base_triples() + padding)
    with ServerThread(store, port=0) as handle:
        client = Client(handle.address)
        _, _, stats = client.request("GET", "/stats")
        assert stats["deletion"] is None
        client.request("POST", "/remove?wait=1", nt("Bart"))
        _, _, stats = client.request("GET", "/stats")
        client.close()
    deletion = stats["deletion"]
    assert set(deletion) == {
        "route", "reason", "removed", "overdeleted", "rederived"
    }
    assert deletion["removed"] == 1
    if stats["materialize"] == "hybrid":
        assert deletion["route"] == "rebuild"
    else:
        assert deletion == dict(
            deletion, route="dred", reason=None, overdeleted=2
        )


def test_post_query_with_limit(served):
    _, _, client = served
    client.request("POST", "/add?wait=1", nt("Lisa") + nt("Maggie"))
    body = json.dumps({"query": f"?who a <{EX}mammal>", "limit": 1})
    status, _, payload = client.request("POST", "/query", body)
    assert status == 200
    assert payload["n"] == 3
    assert payload["returned"] == 1


@pytest.fixture(scope="module")
def big_scan():
    """1,200 humans: a scan larger than the default limit of 1,000."""
    names = [f"h{i:04d}" for i in range(1200)]
    store = Store(
        base_triples()[:2]
        + [Triple(ex(name), RDF.type, ex("human")) for name in names]
    )
    everyone = store.snapshot().solutions(f"?who a <{EX}mammal>")
    assert len(everyone) == 1200
    with ServerThread(store, port=0) as handle:
        client = Client(handle.address)
        yield client, handle, [s["who"].n3() for s in everyone]
        client.close()


@pytest.mark.parametrize("limit, returned", [
    (0, 0), (1, 1), (100, 100), (-1, 1200), (None, 1000), (5000, 1200),
])
def test_limit_cuts_what_is_returned_not_what_is_counted(
    big_scan, limit, returned
):
    client, handle, everyone = big_scan
    assert handle.server.default_limit == 1000
    suffix = "" if limit is None else f"&limit={limit}"
    status, _, payload = client.request(
        "GET", f"/query?q={MAMMAL_Q}{suffix}"
    )
    assert status == 200
    assert payload["n"] == 1200
    assert payload["returned"] == returned
    # The body is the first `returned` solutions, in the snapshot's order.
    assert [s["who"] for s in payload["solutions"]] == everyone[:returned]
    # POST carries the limit in its JSON body.
    body = {"query": f"?who a <{EX}mammal>"}
    if limit is not None:
        body["limit"] = limit
    status, _, posted = client.request("POST", "/query", json.dumps(body))
    assert status == 200
    assert posted == payload


def test_only_the_returned_rows_are_decoded(big_scan, monkeypatch):
    from repro.dictionary.encoding import Dictionary

    client, _, _ = big_scan
    decoded = []
    decode_column = Dictionary.decode_column

    def spy(self, term_ids):
        decoded.append(len(term_ids))
        return decode_column(self, term_ids)

    monkeypatch.setattr(Dictionary, "decode_column", spy)
    _, _, payload = client.request("GET", f"/query?q={MAMMAL_Q}&limit=7")
    assert (payload["n"], payload["returned"]) == (1200, 7)
    assert decoded == [7]


def test_reader_pinned_to_an_epoch_never_sees_newer_writes(served):
    _, _, client = served
    pinned = 1
    status, before = _mammals(client, epoch=pinned)
    assert status == 200
    for name in ("Lisa", "Maggie", "Rex"):
        client.request("POST", "/add?wait=1", nt(name))
    # The live closure moved on...
    _, now = _mammals(client)
    assert now["epoch"] == 4
    assert now["n"] == 4
    # ...but the pinned epoch still answers exactly the old closure.
    status, again = _mammals(client, epoch=pinned)
    assert status == 200
    assert again == before
    assert again["epoch"] == pinned
    assert again["n"] == 1


def test_evicted_epoch_answers_410(served):
    _, _, client = served
    # retained_epochs=4: epochs 1..5 exist after four writes, 1 evicted.
    for index in range(4):
        client.request("POST", "/add?wait=1", nt(f"extra{index}"))
    status, _, payload = client.request("GET", f"/query?q={MAMMAL_Q}&epoch=1")
    assert status == 410
    assert "no longer retained" in payload["error"]
    status, _, _ = client.request("GET", f"/query?q={MAMMAL_Q}&epoch=5")
    assert status == 200


def test_async_write_is_accepted_then_lands(served):
    _, _, client = served
    status, _, payload = client.request("POST", "/add", nt("Lisa"))
    assert status == 202
    assert payload["queued"] == 1
    deadline = time.time() + 30
    while time.time() < deadline:
        _, payload = _mammals(client)
        if payload["n"] == 2:
            break
        time.sleep(0.01)
    assert payload["n"] == 2


def test_write_bursts_coalesce_into_fewer_flushes(served):
    store, handle, client = served
    block = threading.Event()
    original = store.materialize

    def gated():
        block.wait(30)
        return original()

    store.materialize = gated
    try:
        for index in range(6):
            status, _, _ = client.request("POST", "/add", nt(f"bulk{index}"))
            assert status == 202
    finally:
        block.set()
        store.materialize = original
    client.request("POST", "/add?wait=1", nt("final"))
    _, _, stats = client.request("GET", "/stats")
    # 7 mutations landed in at most 3 flushes (first drain + coalesced
    # remainder + the waited write) — not one flush per request.
    assert stats["flush"]["coalesced_mutations"] == 7
    assert 1 <= stats["flush"]["flushes"] <= 3
    _, payload = _mammals(client)
    assert payload["n"] == 8


def test_backpressure_returns_429_with_retry_after():
    store = Store(base_triples())
    with ServerThread(store, port=0, queue_depth=2) as handle:
        client = Client(handle.address)
        block = threading.Event()
        original = store.materialize

        def gated():
            block.wait(30)
            return original()

        store.materialize = gated
        try:
            statuses = []
            for index in range(5):
                status, headers, _ = client.request(
                    "POST", "/add", nt(f"burst{index}")
                )
                statuses.append((status, headers))
        finally:
            block.set()
            store.materialize = original
        rejected = [(s, h) for s, h in statuses if s == 429]
        accepted = [s for s, _ in statuses if s == 202]
        assert rejected, statuses
        assert accepted, statuses
        assert all(int(h["retry-after"]) >= 1 for _, h in rejected)
        # Everything accepted still lands.  The final write may race
        # the writer draining the burst (queue still full → another
        # honest 429), so retry like a well-behaved client would.
        final_rejects = 0
        for _ in range(100):
            status, _, _ = client.request(
                "POST", "/add?wait=1", nt("final")
            )
            if status != 429:
                break
            final_rejects += 1
            time.sleep(0.05)
        assert status == 200, status
        _, _, payload = client.request("GET", f"/query?q={MAMMAL_Q}")
        assert payload["n"] == 1 + len(accepted) + 1
        _, _, metrics = client.request("GET", "/stats")
        assert metrics["queue"]["rejected_total"] == (
            len(rejected) + final_rejects
        )
        client.close()


def test_failed_flush_keeps_the_write_and_retries():
    store = Store(base_triples())
    with ServerThread(store, port=0, flush_retry_seconds=0.05) as handle:
        client = Client(handle.address)
        original = store.materialize
        calls = {"n": 0}

        def flaky():
            calls["n"] += 1
            if calls["n"] == 1:
                raise MaterializationTimeout("injected flush failure")
            return original()

        store.materialize = flaky
        try:
            status, _, payload = client.request(
                "POST", "/add?wait=1", nt("Lisa")
            )
            # The waited write reports the failure honestly...
            assert status == 503
            assert "queued" in payload["error"]
            # ...but the write was never lost: the writer retries and
            # the triple lands.
            deadline = time.time() + 30
            payload = None
            while time.time() < deadline:
                _, payload = _mammals(client)
                if payload["n"] == 2:
                    break
                time.sleep(0.02)
            assert payload["n"] == 2
        finally:
            store.materialize = original
        _, _, stats = client.request("GET", "/stats")
        assert stats["flush"]["failures"] == 1
        assert "injected" in stats["flush"]["last_error"]
        client.close()


def test_graceful_shutdown_completes_with_idle_keepalive_client():
    """An idle keep-alive connection must not deadlock stop().

    Regression: stop() used to await Server.wait_closed() before
    cancelling connection tasks; on Python >= 3.12.1 wait_closed()
    blocks until every handler returns, and a client parked between
    requests never returns — shutdown hung and the queue never drained.
    """
    store = Store(base_triples())
    handle = ServerThread(store, port=0).start()
    idle = Client(handle.address)
    status, _, _ = idle.request("GET", "/health")
    assert status == 200
    # Queue a write, then stop while the connection sits idle.
    status, _, _ = idle.request("POST", "/add", nt("Lisa"))
    assert status == 202
    handle.stop(timeout=30)
    assert not handle._thread.is_alive()
    assert not store.stale  # the queued write still drained
    assert Triple(ex("Lisa"), RDF.type, ex("mammal")) in store
    idle.close()


def test_http10_defaults_to_connection_close():
    store = Store(base_triples())
    with ServerThread(store, port=0) as handle:
        host, port = handle.address
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            sock.sendall(b"GET /health HTTP/1.0\r\nHost: x\r\n\r\n")
            data = b""
            while True:
                chunk = sock.recv(4096)
                if not chunk:
                    break  # server closed, as HTTP/1.0 requires
                data += chunk
        head = data.split(b"\r\n\r\n", 1)[0].decode("latin-1").lower()
        assert "connection: close" in head
        # Opting in with Connection: keep-alive keeps the socket open.
        with socket.create_connection((host, port), timeout=10) as sock:
            sock.settimeout(10)
            request = (
                b"GET /health HTTP/1.0\r\nHost: x\r\n"
                b"Connection: keep-alive\r\n\r\n"
            )
            for _ in range(2):
                sock.sendall(request)
                head = b""
                while b"\r\n\r\n" not in head:
                    head += sock.recv(4096)
                header_block, _, rest = head.partition(b"\r\n\r\n")
                lower = header_block.decode("latin-1").lower()
                assert "connection: keep-alive" in lower
                length = int(
                    [
                        line.split(":", 1)[1]
                        for line in lower.split("\r\n")
                        if line.startswith("content-length:")
                    ][0]
                )
                while len(rest) < length:
                    rest += sock.recv(4096)


def _parse_gauges(text):
    gauges = {}
    for line in text.splitlines():
        name, _, value = line.partition(" ")
        if "{" not in name:
            try:
                gauges[name] = float(value)
            except ValueError:
                pass
    return gauges


def test_staleness_gauge_covers_drained_but_unflushed_writes():
    """A failing flush must not zero the staleness gauge.

    Regression: staleness was computed only from mutations still in
    the queue, so once the writer drained a batch whose flush then
    failed, the gauge read 0.0 exactly when writes were sitting
    unapplied.
    """
    store = Store(base_triples())
    with ServerThread(store, port=0, flush_retry_seconds=0.05) as handle:
        client = Client(handle.address)
        original = store.materialize
        failing = threading.Event()

        def flaky():
            if failing.is_set():
                raise MaterializationTimeout("injected flush failure")
            return original()

        store.materialize = flaky
        failing.set()
        try:
            status, _, _ = client.request("POST", "/add", nt("Lisa"))
            assert status == 202
            deadline = time.time() + 30
            staleness = 0.0
            while time.time() < deadline:
                _, _, body = client.request("GET", "/metrics")
                gauges = _parse_gauges(body.decode("utf-8"))
                if (
                    gauges.get("repro_serving_flush_failures_total", 0) >= 1
                    and gauges.get("repro_serving_queue_depth") == 0
                ):
                    staleness = gauges["repro_serving_staleness_seconds"]
                    break
                time.sleep(0.02)
            assert staleness > 0.0
            failing.clear()
            # Once the retry lands, the gauge returns to zero.
            deadline = time.time() + 30
            while time.time() < deadline:
                _, payload = _mammals(client)
                if payload["n"] == 2:
                    break
                time.sleep(0.02)
            assert payload["n"] == 2
            _, _, body = client.request("GET", "/metrics")
            gauges = _parse_gauges(body.decode("utf-8"))
            assert gauges["repro_serving_staleness_seconds"] == 0.0
        finally:
            failing.clear()
            store.materialize = original
        client.close()


def test_graceful_shutdown_drains_queued_writes():
    store = Store(base_triples())
    handle = ServerThread(store, port=0).start()
    client = Client(handle.address)
    for index in range(5):
        status, _, _ = client.request("POST", "/add", nt(f"drain{index}"))
        assert status == 202
    client.close()
    handle.stop()
    # Every accepted write survived the shutdown flush.
    assert not store.stale
    for index in range(5):
        assert Triple(ex(f"drain{index}"), RDF.type, ex("mammal")) in store


def test_error_shapes(served):
    _, _, client = served
    status, _, payload = client.request("GET", "/nope")
    assert status == 404
    status, headers, _ = client.request("GET", "/add")
    assert status == 405
    assert "POST" in headers["allow"]
    status, _, payload = client.request("GET", "/query")
    assert status == 400
    assert "missing BGP" in payload["error"]
    status, _, payload = client.request("GET", "/query?q=%3Fx%20oops")
    assert status == 400
    assert "bad BGP" in payload["error"]
    status, _, payload = client.request("POST", "/add", "not ntriples")
    assert status == 400
    assert "bad N-Triples" in payload["error"]
    status, _, payload = client.request("POST", "/add", "")
    assert status == 400
    status, _, payload = client.request(
        "GET", f"/query?q={MAMMAL_Q}&epoch=abc"
    )
    assert status == 400
    status, _, payload = client.request("POST", "/query", "{broken")
    assert status == 400


@pytest.mark.parametrize("limit", [True, False, 1.0, "5"])
def test_post_query_limit_must_be_an_integer(served, limit):
    """A JSON ``true`` is a Python ``int``; it must not read as 1."""
    _, _, client = served
    body = json.dumps({"query": f"?who a <{EX}mammal>", "limit": limit})
    status, _, payload = client.request("POST", "/query", body)
    assert status == 400
    assert "limit must be an integer" in payload["error"]


def test_concurrent_readers_and_writers_stay_consistent(served):
    """Interleaved readers and writers: every response is internally
    consistent (epoch N always answers with epoch N's closure)."""
    _, handle, client = served
    counts_by_epoch = {}
    errors = []
    stop = threading.Event()

    def reader():
        local = Client(handle.address)
        try:
            while not stop.is_set():
                status, payload = _mammals(local)
                if status != 200:
                    errors.append(("status", status))
                    return
                seen = counts_by_epoch.setdefault(
                    payload["epoch"], payload["n"]
                )
                if seen != payload["n"]:
                    errors.append(("epoch tear", payload))
                    return
        finally:
            local.close()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        writer = Client(handle.address)
        for index in range(10):
            status, _, _ = writer.request(
                "POST", "/add?wait=1", nt(f"load{index}")
            )
            assert status == 200
        writer.close()
    finally:
        stop.set()
        for thread in threads:
            thread.join(30)
    assert not errors, errors[:3]
    # Monotone workload: later epochs can only know more mammals.
    epochs = sorted(counts_by_epoch)
    counts = [counts_by_epoch[e] for e in epochs]
    assert counts == sorted(counts)
