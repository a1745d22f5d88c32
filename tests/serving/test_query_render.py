"""``/query`` answered on the event loop, rendered in slices.

The body of every answer must be byte-identical to one ``json_body`` of
the whole payload (the shape the server always returned), however the
rows fall into render slices; and a long answer must not hold the loop:
a request on another connection is answered between two slices.
"""

import asyncio
import http.client
import json
import socket
import threading
import urllib.parse

import pytest

from repro import Store
from repro.core.store_api import Snapshot
from repro.dictionary.encoding import Dictionary
from repro.rdf import RDF, RDFS, Literal, Triple, iri
from repro.serving import ReasoningServer, ServerThread
from repro.serving import http as http_module
from repro.serving import server as server_module
from repro.serving.http import json_body

EX = "http://example.org/"

#: The render slice the byte-identity tests patch in.
SLICE = 4


def ex(name):
    return iri(EX + name)


def humans(count):
    return [
        Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
        Triple(ex("Bart"), ex("says"), Literal('Ay "caramba" — ¡olé! ☃')),
    ] + [Triple(ex(f"h{i:04d}"), RDF.type, ex("human")) for i in range(count)]


def whole_body(snapshot, text, limit):
    """The answer as one ``json_body`` of the whole payload."""
    table = snapshot.evaluate(text)
    returned = table if limit < 0 else table.head(limit)
    return json_body({
        "epoch": snapshot.epoch,
        "n": len(table),
        "returned": len(returned),
        "solutions": [
            {name: term.n3() for name, term in solution.items()}
            for solution in returned.bindings()
        ],
    })


def raw(conn, method, path, body=None):
    conn.request(method, path, body=body)
    response = conn.getresponse()
    return response.status, response.read()


def get_path(text, limit=None, epoch=None):
    path = "/query?q=" + urllib.parse.quote(text)
    if limit is not None:
        path += f"&limit={limit}"
    if epoch is not None:
        path += f"&epoch={epoch}"
    return path


def post_body(text, limit=None, epoch=None):
    payload = {"query": text}
    if limit is not None:
        payload["limit"] = limit
    if epoch is not None:
        payload["epoch"] = epoch
    return json.dumps(payload)


@pytest.fixture
def served(monkeypatch):
    monkeypatch.setattr(server_module, "RENDER_SLICE_ROWS", SLICE)
    store = Store(humans(40))
    with ServerThread(store, port=0) as handle:
        conn = http.client.HTTPConnection(*handle.address, timeout=30)
        yield store, handle, conn
        conn.close()


def assert_same_bodies(conn, snapshot, text, limit, epoch=None):
    """GET and POST bodies equal ``whole_body`` (no limit: 1,000)."""
    expected = whole_body(snapshot, text, 1000 if limit is None else limit)
    status, got = raw(conn, "GET", get_path(text, limit, epoch))
    assert status == 200
    assert got == expected
    status, posted = raw(
        conn, "POST", "/query", post_body(text, limit, epoch)
    )
    assert status == 200
    assert posted == expected


LIMITS = [-1, 0, 1, SLICE - 1, SLICE, SLICE + 1, 3 * SLICE + 5, None]


class TestByteIdentity:
    @pytest.mark.parametrize("limit", LIMITS)
    def test_one_variable(self, served, limit):
        store, _, conn = served
        text = f"?who a <{EX}mammal>"
        assert len(store.snapshot().evaluate(text)) > 3 * SLICE + 5
        assert_same_bodies(conn, store.snapshot(), text, limit)

    @pytest.mark.parametrize("limit", [-1, 2 * SLICE])
    def test_every_variable_and_a_literal(self, served, limit):
        store, _, conn = served
        assert_same_bodies(conn, store.snapshot(), "?s ?p ?o", limit)

    @pytest.mark.parametrize("text", [
        f"?who a <{EX}nothing>",  # a constant the store never saw
        f"?c <{RDFS.subClassOf.value}> <{EX}human>",  # known, no match
    ])
    def test_empty_answer(self, served, text):
        store, _, conn = served
        assert_same_bodies(conn, store.snapshot(), text, -1)

    @pytest.mark.parametrize("text, n", [
        (f"<{EX}h0001> a <{EX}mammal>", 1),
        (f"<{EX}h0001> a <{EX}dog>", 0),
    ])
    def test_ground_pattern(self, served, text, n):
        store, _, conn = served
        status, body = raw(conn, "GET", get_path(text, -1))
        assert json.loads(body)["solutions"] == [{}] * n
        assert_same_bodies(conn, store.snapshot(), text, -1)

    @pytest.mark.parametrize("limit", [-1, SLICE + 1])
    def test_join(self, served, limit):
        store, _, conn = served
        text = f"?who a <{EX}mammal> . ?who a <{EX}human>"
        assert_same_bodies(conn, store.snapshot(), text, limit)

    def test_pinned_epoch(self, served):
        store, handle, conn = served
        before = store.snapshot()
        assert before.epoch == handle.server.epoch
        late = f"<{EX}late> <{RDF.type.value}> <{EX}human> .\n"
        status, _ = raw(conn, "POST", "/add?wait=1", late)
        assert status == 200
        assert handle.server.epoch > before.epoch
        text = f"?who a <{EX}mammal>"
        for limit in (-1, SLICE + 1):
            assert_same_bodies(conn, before, text, limit, before.epoch)
            assert_same_bodies(conn, store.snapshot(), text, limit)


async def _response(reader):
    """(status, body) of one response on an asyncio stream."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    length = next(
        int(line.split(":", 1)[1])
        for line in lines
        if line.lower().startswith("content-length:")
    )
    return int(lines[0].split()[1]), await reader.readexactly(length)


def test_health_is_answered_while_a_long_answer_renders(monkeypatch):
    """A ``/health`` on a second connection, sent once the scan has
    rendered its first slice, is answered before the scan's last slice.

    The server runs on this test's own loop.  Each slice decodes one
    column, so the spy on ``decode_column`` counts slices; the first one
    sets the event that sends the ``/health``.
    """
    rows = 1000
    monkeypatch.setattr(server_module, "RENDER_SLICE_ROWS", 1)
    store = Store(humans(rows))
    decode_column = Dictionary.decode_column
    rendered = []
    first_slice = None

    def spy(self, term_ids):
        rendered.append(len(term_ids))
        first_slice.set()
        return decode_column(self, term_ids)

    async def scenario():
        nonlocal first_slice
        first_slice = asyncio.Event()
        server = ReasoningServer(store, port=0)
        await server.start()
        writers = []
        try:
            scan_reader, scan_writer = await asyncio.open_connection(
                *server.address
            )
            health_reader, health_writer = await asyncio.open_connection(
                *server.address
            )
            writers = [scan_writer, health_writer]
            monkeypatch.setattr(Dictionary, "decode_column", spy)
            path = get_path(f"?who a <{EX}mammal>", -1)
            scan_writer.write(f"GET {path} HTTP/1.1\r\n\r\n".encode())
            await first_slice.wait()
            health_writer.write(b"GET /health HTTP/1.1\r\n\r\n")
            health = await _response(health_reader)
            slices_before_health = len(rendered)
            scan = await _response(scan_reader)
        finally:
            for writer in writers:
                writer.close()
            await server.stop()
        return health, scan, slices_before_health

    health, scan, slices_before_health = asyncio.run(
        asyncio.wait_for(scenario(), 60)
    )
    assert health[0] == 200
    assert json.loads(health[1])["status"] == "ok"
    assert scan[0] == 200
    assert json.loads(scan[1])["returned"] == rows
    assert rendered == [1] * rows
    assert 1 <= slices_before_health < rows


def test_a_join_is_evaluated_off_the_loop(monkeypatch):
    """A one-pattern BGP is evaluated on the loop's thread; a join on
    another, and while it evaluates the loop answers a ``/health``.

    The spy holds the join's evaluation until the ``/health`` reply has
    arrived; on the loop it would time out instead.
    """
    store = Store(humans(10))
    evaluate = Snapshot.evaluate
    health_answered = threading.Event()
    evaluating = threading.Event()
    seen = []

    def spy(self, bgp):
        patterns = len(bgp.patterns)
        seen.append((patterns, threading.current_thread().name))
        if patterns > 1:
            evaluating.set()
            seen.append(health_answered.wait(10))
        return evaluate(self, bgp)

    monkeypatch.setattr(Snapshot, "evaluate", spy)
    point = get_path(f"?who a <{EX}mammal>", -1)
    join = get_path(f"?who a <{EX}mammal> . ?who a <{EX}human>", -1)
    answers = {}
    with ServerThread(store, port=0) as handle:
        def ask(name, path):
            conn = http.client.HTTPConnection(*handle.address, timeout=30)
            answers[name] = raw(conn, "GET", path)
            conn.close()

        ask("point", point)
        asker = threading.Thread(target=ask, args=("join", join))
        asker.start()
        assert evaluating.wait(10)
        ask("health", "/health")
        health_answered.set()
        asker.join(30)
    loop_thread = handle._thread.name
    assert seen == [(1, loop_thread), (2, seen[1][1]), True]
    assert seen[1][1] != loop_thread
    assert answers["health"][0] == 200
    for name in ("point", "join"):
        status, body = answers[name]
        assert status == 200
        assert json.loads(body)["returned"] == 10


def test_stop_during_a_half_sent_request_is_not_a_408(monkeypatch):
    """Shutdown cancels a connection mid-request: it closes without a
    ``408`` and counts no error (the read deadline is far off).

    The spy signals once the server reads past the request's first
    byte, so the stop lands inside the timed read.
    """
    store = Store(humans(2))
    read_rest = http_module._read_request_after
    reading = threading.Event()

    async def spy(reader, first):
        reading.set()
        return await read_rest(reader, first)

    monkeypatch.setattr(http_module, "_read_request_after", spy)
    handle = ServerThread(store, port=0, read_timeout=30).start()
    with socket.create_connection(handle.address, timeout=30) as sock:
        sock.sendall(b"GET /health HT")  # ...and never finish
        assert reading.wait(10)
        handle.stop(timeout=30)
        assert not handle._thread.is_alive()
        assert sock.recv(4096) == b""  # closed, nothing sent
    assert handle.server.metrics.errors_total == 0
