"""The asyncio reasoning server: snapshot reads, one batching writer.

Architecture (the VLog/LiteMat shape: materialization behind a
query-serving front end):

* **Reads never touch the live store.**  After every flush the writer
  publishes an immutable :class:`~repro.core.store_api.Snapshot`; query
  handlers answer from the currently published snapshot (or from an
  older retained epoch pinned via ``?epoch=N``), so a reader never
  observes a partially flushed closure and a read takes no lock
  against the writer.
* **A one-pattern read runs on the event loop.**  One pattern over
  the materialized closure is a table read, cheaper than a hand-off to
  a thread, so ``/query`` evaluates it where it arrives.  A BGP of two
  or more patterns (a join or a product, which can take tens of
  milliseconds) is evaluated on a thread, so the loop keeps answering
  other connections.  Either way the answer is decoded and
  JSON-encoded :data:`RENDER_SLICE_ROWS` rows at a time on the loop,
  with a yield between slices: a long answer delays a request on
  another connection by one slice (and a one-pattern read by its table
  read), not by the whole render.  Flushes and WAL appends run on
  threads of their own.
* **All writes funnel through one batching queue.**  ``POST /add`` and
  ``POST /remove`` enqueue; a single writer task drains the whole queue
  into the store and runs *one* incremental flush per batch — bursts
  coalesce naturally while a flush is in progress.  A full queue is
  back-pressure: ``429`` with ``Retry-After``.
* **Failed flushes lose nothing.**  The store's mutation queues survive
  a :class:`~repro.core.engine.MaterializationTimeout` (or any flush
  error); the writer backs off and retries, and ``?wait=1`` clients get
  a ``503`` telling them the write is queued, not lost.
* **Graceful shutdown drains.**  Stopping closes the listener and the
  queue, flushes everything still pending, then resolves in-flight
  waiters before the loop exits.

Endpoints: ``GET /health``, ``GET /stats``, ``GET /metrics``
(Prometheus text), ``GET|POST /query``, ``POST /add``,
``POST /remove`` — mirroring the CLI verbs.  Wire format for mutations
is N-Triples (the same format every loader in the repo speaks); query
responses are JSON with terms rendered in N-Triples syntax.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.store_api import Snapshot, Store
from ..query.bgp import BGPSyntaxError, Query, SolutionTable, parse_bgp
from ..rdf.ntriples import NTriplesError, parse
from .http import HTTPError, Request, json_body, read_request, render_response
from .metrics import ServingMetrics
from .queue import Mutation, MutationQueue, QueueClosed, QueueFull
from .wal import WriteAheadLog

__all__ = ["FlushFailed", "ReasoningServer"]

#: Solutions rendered between two yields to the event loop.  Answers
#: are rendered on the loop, so a long answer is decoded and encoded in
#: slices: a request on another connection waits for one slice, not for
#: the whole render.
RENDER_SLICE_ROWS = 2048

#: (status, body, content-type, extra headers) produced by a handler.
Response = Tuple[int, bytes, str, Dict[str, str]]


class FlushFailed(RuntimeError):
    """A ``?wait=1`` write's flush errored; the write stays queued."""


class ReasoningServer:
    """Serve a :class:`repro.Store` over HTTP with snapshot isolation.

    Parameters
    ----------
    store:
        The store to serve.  The server becomes its only writer; don't
        mutate it from elsewhere while the server runs.
    host, port:
        Listen address; ``port=0`` picks an ephemeral port (see
        :attr:`address` after :meth:`start`).
    queue_depth:
        Bound on queued (un-flushed) mutations before writes are
        rejected with ``429`` back-pressure.
    retained_epochs:
        How many recent snapshot epochs stay pinnable via ``?epoch=N``;
        older epochs answer ``410 Gone``.
    flush_retry_seconds:
        Back-off before the writer retries a failed flush.
    default_limit:
        Cap on solutions returned when the client sends no ``limit``.
    read_timeout:
        Slowloris guard: seconds a *started* request has to finish
        arriving (line, headers, body) before the connection is closed
        with ``408``.  Idle keep-alive connections are unaffected.
        ``None`` disables the deadline.
    wal:
        A :class:`~repro.serving.wal.WriteAheadLog`; when given, every
        accepted mutation is appended (and, per the log's fsync
        policy, fsynced) *before* the client sees the ack, the tail is
        replayed into the store on :meth:`start`, and successful
        flushes checkpoint via atomic save + log compaction.
    checkpoint_path:
        Where checkpoints save the store (defaults to
        ``<wal path>.checkpoint``).  On boot the CLI prefers this file
        over the original input when it exists.
    checkpoint_every:
        Checkpoint after every N-th successful flush (default 1).
    """

    def __init__(
        self,
        store: Store,
        *,
        host: str = "127.0.0.1",
        port: int = 8080,
        queue_depth: int = 256,
        retained_epochs: int = 8,
        flush_retry_seconds: float = 0.5,
        default_limit: int = 1000,
        max_drain_failures: int = 3,
        read_timeout: Optional[float] = 30.0,
        wal: Optional[WriteAheadLog] = None,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: int = 1,
    ):
        self._store = store
        self.host = host
        self.port = port
        self.retained_epochs = max(1, retained_epochs)
        self.default_limit = default_limit
        self._flush_retry_seconds = flush_retry_seconds
        self._max_drain_failures = max_drain_failures
        self.queue = MutationQueue(max_depth=queue_depth)
        self.metrics = ServingMetrics()
        self._epochs: "OrderedDict[int, Snapshot]" = OrderedDict()
        self._current: Optional[Snapshot] = None
        self._epoch_published_at = time.monotonic()
        self._started_at = time.monotonic()
        self._last_flush_error: Optional[str] = None
        #: Enqueue time of the oldest mutation drained from the queue
        #: but not yet durably flushed; feeds the staleness gauge so a
        #: failing flush can't make drained-but-unapplied writes read
        #: as zero staleness.
        self._oldest_unflushed: Optional[float] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._writer_task: Optional[asyncio.Task] = None
        self._connections: set = set()
        self._stopping = False
        self._closed = asyncio.Event()
        self._read_timeout = (
            read_timeout if read_timeout and read_timeout > 0 else None
        )
        self._wal = wal
        self._checkpoint_path = checkpoint_path or (
            wal.path + ".checkpoint" if wal is not None else None
        )
        self._checkpoint_every = max(1, checkpoint_every)
        self._flushes_since_checkpoint = 0
        self._replayed_at_boot = 0
        #: Highest WAL sequence covered by a *successful* flush — the
        #: only safe checkpoint bound.  A drained batch whose flush
        #: errored is not in the store, so its records must survive in
        #: the log for the next boot's replay.
        self._flushed_wal_seq = 0
        self._flush_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-flush"
        )
        # WAL appends get a dedicated single thread: they must not sit
        # behind a long materialization on the flush thread (appends
        # gate acks), and a single thread keeps sequence order equal to
        # enqueue order, which checkpoints rely on.
        self._wal_pool = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-wal")
            if wal is not None
            else None
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Materialize, publish epoch 1, start listening and writing.

        With a WAL, the un-checkpointed tail (acknowledged writes a
        previous process never flushed) is replayed into the store
        first, so the epoch published here already contains them; the
        boot then checkpoints immediately, compacting the log.
        """
        loop = asyncio.get_running_loop()
        if self._wal is not None:
            self._replayed_at_boot = await loop.run_in_executor(
                self._flush_pool, self._wal.replay_into, self._store
            )
            self.metrics.wal_replayed_total += self._replayed_at_boot
        snapshot, _ = await loop.run_in_executor(
            self._flush_pool, self._flush_sync
        )
        self._publish(snapshot)
        if self._wal is not None:
            self._flushed_wal_seq = self._wal.last_seq
            if self._wal.depth:
                await loop.run_in_executor(
                    self._flush_pool,
                    self._checkpoint_sync,
                    self._wal.last_seq,
                )
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self._writer_task = asyncio.create_task(
            self._writer_loop(), name="repro-serving-writer"
        )

    @property
    def address(self) -> Tuple[str, int]:
        """The bound (host, port) — resolves ``port=0`` ephemerality."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def epoch(self) -> int:
        """The currently published closure epoch."""
        return self._current.epoch if self._current is not None else 0

    def request_stop(self) -> None:
        """Begin a graceful shutdown from anywhere on the loop."""
        if not self._stopping:
            asyncio.ensure_future(self.stop())

    async def wait_closed(self) -> None:
        """Block until a requested shutdown has fully drained."""
        await self._closed.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain the queue, flush."""
        if self._stopping:
            await self._closed.wait()
            return
        self._stopping = True
        if self._server is not None:
            # Stop accepting, but do NOT await wait_closed() yet: on
            # Python >= 3.12.1 it blocks until every connection handler
            # returns, and an idle keep-alive client parked in
            # read_request() never would — the queue must drain and the
            # connections must be cancelled first.
            self._server.close()
        self.queue.close()
        if self._writer_task is not None:
            await self._writer_task
        if self._connections:
            done, pending = await asyncio.wait(
                list(self._connections), timeout=1.0
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.wait(list(pending), timeout=1.0)
        if self._server is not None:
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(self._server.wait_closed(), timeout=1.0)
        if (
            self._wal is not None
            and self._wal.depth
            and self._flushed_wal_seq
        ):
            # One last checkpoint covering every *flushed* record —
            # when the shutdown drained cleanly that is all of them
            # (empty log, nothing to replay next boot); records whose
            # flush never landed stay in the log for the next replay.
            with contextlib.suppress(Exception):
                await asyncio.get_running_loop().run_in_executor(
                    self._flush_pool,
                    self._checkpoint_sync,
                    self._flushed_wal_seq,
                )
        if self._wal_pool is not None:
            self._wal_pool.shutdown(wait=True)
        self._flush_pool.shutdown(wait=True)
        if self._wal is not None:
            self._wal.close()
        self._closed.set()

    # ------------------------------------------------------------------
    # The single writer
    # ------------------------------------------------------------------
    def _flush_sync(self, batch: Sequence[Mutation] = ()):
        """Apply a drained batch, then flush — on the flush thread.

        Applying the mutations here rather than on the event loop
        matters for removes: ``Store.remove`` probes the engine's
        asserted column, a vectorised pass over every asserted triple,
        which would still stall in-flight reads and health checks if
        it ran on the loop.

        Returns ``(snapshot, stats)``; ``snapshot`` is ``None`` when
        the batch left nothing to flush (e.g. removes of triples that
        were never asserted).
        """
        for mutation in batch:
            if mutation.kind == "add":
                self._store.add(list(mutation.triples))
            else:
                self._store.remove(list(mutation.triples))
        if batch and not self._store.stale:
            return None, None
        stats = self._store.materialize()
        return self._store.snapshot(), stats

    def _checkpoint_sync(self, upto_seq: int) -> None:
        """Atomic store save + WAL compaction — on the flush thread.

        Sharing the flush thread serializes checkpoints against
        flushes, so the saved closure always covers every record being
        truncated.
        """
        assert self._wal is not None and self._checkpoint_path is not None
        if self._wal.fsync_policy == "batch":
            self._wal.sync()
        self._store.save(self._checkpoint_path)
        self._wal.checkpoint(upto_seq)
        self.metrics.wal_checkpoints_total += 1

    async def _writer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        waiters: List[asyncio.Future] = []
        consecutive_failures = 0
        while True:
            if self._store.stale or self.queue.depth:
                batch = self.queue.drain()
            else:
                batch = await self.queue.get_batch()
                if not batch:
                    break  # closed and empty, nothing stale
            n_triples = 0
            for mutation in batch:
                n_triples += len(mutation.triples)
                if mutation.future is not None:
                    waiters.append(mutation.future)
                if mutation.wal_future is not None:
                    # Durability before application: wait out the
                    # in-flight append so the flush below never applies
                    # a record the log doesn't hold, and its wal_seq
                    # is known by checkpoint time.  A failed append is
                    # fine — that write was 503'd, never acknowledged.
                    try:
                        mutation.wal_seq = await mutation.wal_future
                    except Exception:
                        pass
            if batch and self._oldest_unflushed is None:
                self._oldest_unflushed = batch[0].enqueued_at
            started = time.monotonic()
            try:
                snapshot, _ = await loop.run_in_executor(
                    self._flush_pool, self._flush_sync, batch
                )
            except Exception as error:
                consecutive_failures += 1
                self.metrics.flush_failures_total += 1
                detail = f"{type(error).__name__}: {error}"
                self._last_flush_error = detail
                self._fail_waiters(waiters, detail)
                waiters = []
                if (
                    self.queue.closed
                    and consecutive_failures >= self._max_drain_failures
                ):
                    break  # shutting down and the flush won't land
                await asyncio.sleep(self._flush_retry_seconds)
                continue
            consecutive_failures = 0
            self._oldest_unflushed = None
            if snapshot is not None:
                self._publish(
                    snapshot,
                    latency=time.monotonic() - started,
                    batch=len(batch),
                    n_triples=n_triples,
                )
            self._resolve_waiters(waiters)
            waiters = []
            if self._wal is not None and batch:
                known = [
                    m.wal_seq for m in batch if m.wal_seq is not None
                ]
                if known:
                    self._flushed_wal_seq = max(
                        self._flushed_wal_seq, max(known)
                    )
                self._flushes_since_checkpoint += 1
                if (
                    self._flushes_since_checkpoint >= self._checkpoint_every
                    and self._flushed_wal_seq
                ):
                    # The batch is durably in the closure; truncate the
                    # log through the highest flushed sequence.  A
                    # record whose append failed has no seq — but its
                    # write was never acknowledged, so it needs no
                    # durability either.
                    try:
                        await loop.run_in_executor(
                            self._flush_pool,
                            self._checkpoint_sync,
                            self._flushed_wal_seq,
                        )
                    except Exception as error:
                        # Checkpoint failure is not data loss — the
                        # WAL still covers everything; retry after
                        # the next flush.
                        self._last_flush_error = (
                            f"checkpoint failed: "
                            f"{type(error).__name__}: {error}"
                        )
                    else:
                        self._flushes_since_checkpoint = 0
            if (
                self.queue.closed
                and not self.queue.depth
                and not self._store.stale
            ):
                break
        self._fail_waiters(waiters, "server stopped before the flush landed")

    def _resolve_waiters(self, waiters: List[asyncio.Future]) -> None:
        for future in waiters:
            if not future.done():
                future.set_result(self.epoch)

    def _fail_waiters(self, waiters: List[asyncio.Future], detail: str) -> None:
        for future in waiters:
            if not future.done():
                future.set_exception(FlushFailed(detail))

    def _publish(
        self,
        snapshot: Snapshot,
        *,
        latency: Optional[float] = None,
        batch: int = 0,
        n_triples: int = 0,
    ) -> None:
        self._current = snapshot
        self._epochs[snapshot.epoch] = snapshot
        while len(self._epochs) > self.retained_epochs:
            self._epochs.popitem(last=False)
        self._epoch_published_at = time.monotonic()
        if latency is not None:
            self.metrics.record_flush(latency, batch, n_triples)

    # ------------------------------------------------------------------
    # Connections and routing
    # ------------------------------------------------------------------
    async def _on_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._connections.discard(task)
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _serve_connection(self, reader, writer) -> None:
        while True:
            try:
                request = await read_request(
                    reader, timeout=self._read_timeout
                )
            except HTTPError as error:
                self.metrics.errors_total += 1
                writer.write(
                    render_response(
                        error.status,
                        json_body({"error": error.message}),
                        headers=error.headers,
                        keep_alive=False,
                    )
                )
                await writer.drain()
                return
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            if request is None:
                return
            keep_alive = request.keep_alive and not self._stopping
            try:
                status, body, content_type, headers = await self._route(
                    request
                )
            except HTTPError as error:
                if error.status == 429:
                    self.metrics.rejected_total += 1
                else:
                    self.metrics.errors_total += 1
                status, content_type = error.status, "application/json"
                body = json_body({"error": error.message})
                headers = error.headers
            except Exception as error:  # a handler bug must not kill serving
                self.metrics.errors_total += 1
                status, content_type = 500, "application/json"
                body = json_body(
                    {"error": f"{type(error).__name__}: {error}"}
                )
                headers = {}
            writer.write(
                render_response(
                    status,
                    body,
                    content_type=content_type,
                    headers=headers,
                    keep_alive=keep_alive,
                )
            )
            await writer.drain()
            if not keep_alive:
                return

    async def _route(self, request: Request) -> Response:
        path = request.path.rstrip("/") or "/"
        routes = {
            "/health": (("GET",), self._handle_health),
            "/stats": (("GET",), self._handle_stats),
            "/metrics": (("GET",), self._handle_metrics),
            "/query": (("GET", "POST"), self._handle_query),
            "/add": (("POST",), self._handle_add),
            "/remove": (("POST",), self._handle_remove),
        }
        entry = routes.get(path)
        if entry is None:
            raise HTTPError(404, f"no such endpoint {request.path!r}")
        methods, handler = entry
        if request.method not in methods:
            raise HTTPError(
                405,
                f"{request.method} not allowed on {path}",
                headers={"Allow": ", ".join(methods)},
            )
        return await handler(request)

    # ------------------------------------------------------------------
    # Read side
    # ------------------------------------------------------------------
    def _pin_epoch(self, request: Request) -> Snapshot:
        """The snapshot a read runs against (current, or ``?epoch=N``)."""
        wanted = request.int_param("epoch")
        current = self._current
        if wanted is None or wanted == current.epoch:
            return current
        snapshot = self._epochs.get(wanted)
        if snapshot is None:
            raise HTTPError(
                410,
                f"epoch {wanted} is no longer retained "
                f"(current epoch {current.epoch}, retaining "
                f"{len(self._epochs)})",
            )
        self.metrics.read_epoch_lag.observe(current.epoch - wanted)
        return snapshot

    async def _handle_query(self, request: Request) -> Response:
        self.metrics.count_request("query")
        if request.method == "POST":
            payload = _json_payload(request)
            text = payload.get("query")
            limit = payload.get("limit")
            if limit is not None and (
                isinstance(limit, bool) or not isinstance(limit, int)
            ):
                raise HTTPError(400, "limit must be an integer")
            if "epoch" in payload and payload["epoch"] is not None:
                request.query["epoch"] = str(payload["epoch"])
        else:
            text = request.query.get("q") or request.query.get("query")
            limit = request.int_param("limit")
        if not text or not isinstance(text, str):
            raise HTTPError(
                400, "missing BGP: pass ?q=… or a JSON body with 'query'"
            )
        if limit is None:
            limit = self.default_limit
        snapshot = self._pin_epoch(request)
        started = time.monotonic()
        try:
            query = Query(parse_bgp(text))
        except BGPSyntaxError as error:
            raise HTTPError(400, f"bad BGP: {error}")
        if len(query.patterns) == 1:
            # One pattern is one table read: cheaper than a hand-off.
            table = snapshot.evaluate(query)
        else:
            # A join or a product can take tens of milliseconds; on a
            # thread, the loop answers other connections meanwhile.
            table = await asyncio.to_thread(snapshot.evaluate, query)
        # Every solution is counted; only the rows returned are decoded
        # (limit < 0: all of them).
        returned = table if limit < 0 else table.head(limit)
        body = await _render_answer(snapshot.epoch, len(table), returned)
        self.metrics.read_latency.observe(time.monotonic() - started)
        return 200, body, "application/json", {}

    async def _handle_health(self, request: Request) -> Response:
        self.metrics.count_request("health")
        payload = {
            "status": "draining" if self._stopping else "ok",
            "epoch": self.epoch,
            "n_triples": self._current.n_triples,
            "queue_depth": self.queue.depth,
        }
        return 200, json_body(payload), "application/json", {}

    async def _handle_stats(self, request: Request) -> Response:
        self.metrics.count_request("stats")
        engine = self._store.engine
        reads = self.metrics.read_latency
        payload = {
            "epoch": self.epoch,
            "n_triples": self._current.n_triples,
            "ruleset": self._current.ruleset_name,
            "backend": engine.kernels.name,
            "materialize": engine.materialize_mode,
            "absorbed_rules": list(engine.absorbed_rule_names),
            "hybrid_fallback": engine.hybrid_fallback_reason,
            "deletion": engine.last_deletion,
            "uptime_seconds": time.monotonic() - self._started_at,
            "retained_epochs": list(self._epochs),
            "queue": {
                "depth": self.queue.depth,
                "capacity": self.queue.max_depth,
                "enqueued_total": self.queue.total_enqueued,
                "rejected_total": self.queue.total_rejected,
                "closed": self.queue.closed,
            },
            "flush": dict(
                self.metrics.flush_summary(),
                last_error=self._last_flush_error,
            ),
            "reads": {
                "count": reads.count,
                "p50_seconds": reads.percentile(0.5),
                "p99_seconds": reads.percentile(0.99),
            },
            "wal": self._wal_stats(),
        }
        return 200, json_body(payload), "application/json", {}

    def _wal_stats(self) -> dict:
        if self._wal is None:
            return {"enabled": False}
        age = (
            time.monotonic() - self._wal.last_checkpoint_at
            if self._wal.last_checkpoint_at is not None
            else None
        )
        return {
            "enabled": True,
            "path": self._wal.path,
            "fsync_policy": self._wal.fsync_policy,
            "depth": self._wal.depth,
            "last_seq": self._wal.last_seq,
            "appended_total": self._wal.appended_total,
            "append_errors_total": self.metrics.wal_append_errors_total,
            "replayed_at_boot": self._replayed_at_boot,
            "checkpoints_total": self._wal.checkpoints_total,
            "torn_records_dropped": self._wal.torn_records_dropped,
            "last_checkpoint_age_seconds": age,
            "checkpoint_path": self._checkpoint_path,
        }

    async def _handle_metrics(self, request: Request) -> Response:
        self.metrics.count_request("metrics")
        now = time.monotonic()
        pending = [
            t
            for t in (self.queue.oldest_enqueued_at(), self._oldest_unflushed)
            if t is not None
        ]
        oldest = min(pending) if pending else None
        gauges = {
            "epoch": self.epoch,
            "triples": self._current.n_triples,
            "queue_depth": self.queue.depth,
            "queue_capacity": self.queue.max_depth,
            "retained_epochs": len(self._epochs),
            "snapshot_age_seconds": now - self._epoch_published_at,
            "staleness_seconds": (now - oldest) if oldest else 0.0,
            "draining": self.queue.closed,
            "uptime_seconds": now - self._started_at,
        }
        if self._wal is not None:
            gauges["wal_depth"] = self._wal.depth
            gauges["wal_last_seq"] = self._wal.last_seq
            if self._wal.last_checkpoint_at is not None:
                gauges["wal_last_checkpoint_age_seconds"] = (
                    now - self._wal.last_checkpoint_at
                )
        raw_gauges = {
            "repro_hybrid_absorbed_rules": len(
                self._store.engine.absorbed_rule_names
            ),
        }
        text = self.metrics.render(gauges, raw_gauges)
        return (
            200,
            text.encode("utf-8"),
            "text/plain; version=0.0.4; charset=utf-8",
            {},
        )

    # ------------------------------------------------------------------
    # Write side
    # ------------------------------------------------------------------
    async def _handle_add(self, request: Request) -> Response:
        self.metrics.count_request("add")
        return await self._enqueue(request, "add")

    async def _handle_remove(self, request: Request) -> Response:
        self.metrics.count_request("remove")
        return await self._enqueue(request, "remove")

    async def _enqueue(self, request: Request, kind: str) -> Response:
        triples = _parse_triples(request)
        wait = request.flag("wait")
        future = (
            asyncio.get_running_loop().create_future() if wait else None
        )
        mutation = Mutation(kind=kind, triples=triples, future=future)
        try:
            self.queue.try_put(mutation)
        except QueueFull:
            raise HTTPError(
                429,
                f"mutation queue full ({self.queue.max_depth} batches "
                "pending); retry later",
                headers={"Retry-After": str(self._retry_after())},
            )
        except QueueClosed:
            raise HTTPError(503, "server is draining; write rejected")
        if self._wal is not None:
            # Durability gates the ack: the mutation is already queued
            # (so the writer will flush it either way), but the client
            # only hears success once the append — and, under the
            # ``always`` policy, the fsync — landed.  The dedicated
            # single append thread keeps sequence order equal to
            # enqueue order, which checkpoint truncation relies on.
            # The future is published on the mutation *before* this
            # coroutine first yields, so the writer task (which awaits
            # it before flushing) can never observe the mutation
            # without it.
            mutation.wal_future = asyncio.get_running_loop().run_in_executor(
                self._wal_pool, self._wal.append, kind, triples
            )
            try:
                mutation.wal_seq = await mutation.wal_future
            except Exception as error:
                self.metrics.wal_append_errors_total += 1
                raise HTTPError(
                    503,
                    "write-ahead log append failed "
                    f"({type(error).__name__}: {error}); the write is "
                    "queued in memory but NOT durable",
                )
            self.metrics.wal_appended_total += 1
        if future is None:
            payload = {"queued": len(triples), "epoch": self.epoch}
            return 202, json_body(payload), "application/json", {}
        try:
            epoch = await future
        except FlushFailed as error:
            raise HTTPError(
                503,
                f"flush failed ({error}); the write is queued and will "
                "be retried",
            )
        payload = {"flushed": len(triples), "epoch": epoch}
        return 200, json_body(payload), "application/json", {}

    def _retry_after(self) -> int:
        """Seconds a 429'd client should back off: roughly one flush."""
        p50 = self.metrics.flush_latency.percentile(0.5) or 0.0
        return max(1, int(p50 + 0.999))


# ----------------------------------------------------------------------
# Rendering an answer
# ----------------------------------------------------------------------
async def _render_answer(epoch: int, n: int, table: SolutionTable) -> bytes:
    """The ``/query`` body: ``json_body`` of ``{"epoch", "n",
    "returned", "solutions"}``, byte for byte, where ``table`` holds the
    returned rows of an answer with ``n`` solutions in all.

    The rows are decoded and encoded :data:`RENDER_SLICE_ROWS` at a
    time, with a yield to the event loop between slices.
    """
    names = table.variables
    pieces: List[bytes] = []
    for start in range(0, len(table), RENDER_SLICE_ROWS):
        if pieces:
            await asyncio.sleep(0)
        rows = table.window(start, start + RENDER_SLICE_ROWS).term_rows()
        solutions = [
            {name: term.n3() for name, term in zip(names, row)}
            for row in rows
        ]
        pieces.append(json_body(solutions)[1:-1])  # the list's items
    head = json_body({"epoch": epoch, "n": n, "returned": len(table)})
    return head[:-1] + b',"solutions":[' + b",".join(pieces) + b"]}"


# ----------------------------------------------------------------------
# Request-body helpers
# ----------------------------------------------------------------------
def _json_payload(request: Request) -> dict:
    try:
        payload = json.loads(request.body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise HTTPError(400, f"bad JSON body: {error}")
    if not isinstance(payload, dict):
        raise HTTPError(400, "JSON body must be an object")
    return payload


def _parse_triples(request: Request):
    try:
        text = request.body.decode("utf-8")
    except UnicodeDecodeError as error:
        raise HTTPError(400, f"body is not UTF-8: {error}")
    try:
        triples = list(parse(text))
    except NTriplesError as error:
        raise HTTPError(400, f"bad N-Triples body: {error}")
    if not triples:
        raise HTTPError(400, "empty mutation: body held no triples")
    return triples
