"""The served leg: ``python -m repro serve`` as a subprocess, driven over sockets.

Closed loop — every client waits for its reply before sending the next
request — because the callers being modelled are services that block on
the answer, and never more requests in flight than the box has cores
(2): with the server a process of its own, a third runnable thread
would make the latencies the scheduler's.  Phase 1 is one reader on a
keep-alive connection.  Phase 2 is writes whose every request carries
``?wait=1`` and therefore returns only once the write is in the WAL,
flushed into the closure and published — beside the reader and timed in
the traced run, a short untimed burst in the untraced one (see README
for why).  Phase 3 kills the server with SIGKILL, boots a new one on
the same WAL and asks for every acknowledged write back.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.parse
from typing import Dict, List, Optional, Tuple

from repro.rdf import ntriples

from report import ROOT, Tally
from workloads import Dataset

_ANNOUNCE = re.compile(r"serving on http://([^:\s]+):(\d+)")
BOOT_TIMEOUT = 90.0
WRITE_BATCH = 8
#: Every 8th write retracts the batch sent four writes earlier.
REMOVE_EVERY = 8


def child_env() -> Dict[str, str]:
    """The environment every child process gets: no REPRO_* knob, and the
    source tree importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, source: str, wal: str):
        self._argv = [
            sys.executable, "-m", "repro", "serve", source,
            "--port", "0", "--wal", wal,
        ]
        self._process: Optional[subprocess.Popen] = None
        self._stderr: List[str] = []
        self._drain: Optional[threading.Thread] = None
        self.address: Optional[Tuple[str, int]] = None

    def start(self) -> float:
        """Boot and wait for the first ``200``; returns seconds taken."""
        started = time.perf_counter()
        self._process = subprocess.Popen(
            self._argv, env=child_env(), cwd=str(ROOT),
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        )
        announced = threading.Event()

        def drain() -> None:
            for line in self._process.stderr:
                self._stderr.append(line)
                match = _ANNOUNCE.search(line)
                if match and self.address is None:
                    self.address = (match.group(1), int(match.group(2)))
                    announced.set()
            announced.set()  # EOF: the process died before announcing

        self._drain = threading.Thread(target=drain, daemon=True)
        self._drain.start()
        if not announced.wait(BOOT_TIMEOUT) or self.address is None:
            self.kill()
            raise RuntimeError(
                "repro serve did not come up:\n" + "".join(self._stderr[-20:])
            )
        client = Client(self.address)
        try:
            status, _ = client.get("/health")
        finally:
            client.close()
        if status != 200:
            self.kill()
            raise RuntimeError(f"/health answered {status} after boot")
        return time.perf_counter() - started

    def kill(self) -> None:
        """SIGKILL — no drain, no final checkpoint — and reap."""
        self._finish(signal.SIGKILL)

    def stop(self) -> None:
        """SIGTERM (graceful drain), escalating if it does not exit."""
        self._finish(signal.SIGTERM)

    def _finish(self, signum: int) -> None:
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.send_signal(signum)
            try:
                process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if self._drain is not None:
            self._drain.join(timeout=5)
        process.stderr.close()
        self._process = None
        self.address = None


class Client:
    """One keep-alive connection; a transport error reconnects."""

    def __init__(self, address: Tuple[str, int]):
        self._address = address
        self._conn = http.client.HTTPConnection(*address, timeout=60)

    def _request(self, method: str, path: str, body: Optional[bytes]):
        try:
            self._conn.request(method, path, body=body)
            response = self._conn.getresponse()
            return response.status, response.read()
        except (http.client.HTTPException, OSError):
            self._conn.close()
            self._conn = http.client.HTTPConnection(*self._address, timeout=60)
            return None, b""

    def get(self, path: str):
        return self._request("GET", path, None)

    def post(self, path: str, body: bytes):
        return self._request("POST", path, body)

    def close(self) -> None:
        self._conn.close()


def query_path(bgp_text: str, limit: Optional[int] = None) -> str:
    path = "/query?q=" + urllib.parse.quote(bgp_text)
    return path if limit is None else f"{path}&limit={limit}"


def query_solutions(client: Client, bgp_text: str) -> Optional[List[dict]]:
    """Every solution of a BGP as the server renders it, or None."""
    status, body = client.get(query_path(bgp_text, limit=-1))
    if status != 200:
        return None
    return json.loads(body)["solutions"]


#: One cycle of the read mix: 14 point/schema lookups (p), 5 class scans
#: cut at ``limit=100`` (s), 1 ``/health`` (h).
_READ_CYCLE = "ppps" "ppps" "ppps" "ppsp" "psph"
READ_SHARES = {kind: _READ_CYCLE.count(kind) / len(_READ_CYCLE)
               for kind in "psh"}  # 70 % / 25 % / 5 %


def read_paths(dataset: Dataset, seed: int, count: int = 400
               ) -> List[Tuple[str, str]]:
    """``count`` (kind, request path) pairs in the read mix's fixed cycle."""
    points = [text for cls, _, text in dataset.query_mix(seed + 17, 2 * count)
              if cls == "selective"]
    scan = query_path(dataset.http_scan, limit=100)
    paths = []
    for index in range(count):
        kind = _READ_CYCLE[index % len(_READ_CYCLE)]
        if kind == "h":
            paths.append((kind, "/health"))
        elif kind == "s":
            paths.append((kind, scan))
        else:
            paths.append((kind, query_path(points[index % len(points)])))
    return paths


class Traffic:
    """The closed-loop load generator and what it has been told so far.

    State carries across phases — positions in the read mix, the count of
    writes sent, and the ledger of acknowledged writes that the
    durability probe checks after the crash — so a run may alternate
    short read-only and mixed phases and still send one coherent stream.
    Latencies go to ``timings`` as ``<phase>.<kind>`` (reads) and
    ``http_write``.
    """

    def __init__(self, server: Server, dataset: Dataset, seed: int,
                 tally: Tally, timings, recorder=None):
        self.server = server
        self.dataset = dataset
        self.tally = tally
        self.timings = timings
        self.recorder = recorder
        self.paths = read_paths(dataset, seed)
        self.recovery_s = 0.0              # boot → first 200 after kill -9
        #: Acknowledged adds still standing / acknowledged removals, by
        #: write number: the durability probe's ground truth.
        self.present: Dict[int, List] = {}
        self.removed: Dict[int, List] = {}
        self._sent = 0
        self._cursor = 0
        self._reader = Client(server.address)
        self._writer = Client(server.address)
        self._lock = threading.Lock()

    def close(self) -> None:
        self._reader.close()
        self._writer.close()

    def _timed(self, name: str, request):
        """(elapsed seconds, result) of one request; a span when traced."""
        if self.recorder is None:
            started = time.perf_counter()
            result = request()
            return time.perf_counter() - started, result
        with self.recorder.span(name, self.recorder.new_op()) as span:
            result = request()
        return span["end"] - span["start"], result

    def _count(self, ok: bool) -> bool:
        with self._lock:
            return self.tally.op(ok)

    def read(self, phase: str = "http_read") -> None:
        """The next request of the read mix, on the reader's connection."""
        kind, path = self.paths[self._cursor % len(self.paths)]
        self._cursor += 1
        elapsed, (status, body) = self._timed(
            "serving.http_read", lambda: self._reader.get(path))
        if self._count(status == 200 and bool(body)):
            self.timings.record(f"{phase}.{kind}", elapsed)

    def read_mean_ms(self, phase: str) -> float:
        """Mean latency of a phase's reads, in ms, with each kind of
        request weighted by its share of the mix rather than by how many
        of it the phase happened to finish: a phase ends mid-cycle, and
        one scan more or fewer moves an unweighted mean by several per
        cent."""
        total = weight = 0.0
        for kind, share in READ_SHARES.items():
            samples = self.timings.samples(f"{phase}.{kind}")
            if samples:  # a sub-second smoke phase may not reach /health
                total += share * statistics.mean(samples)
                weight += share
        return total / weight * 1e3

    def reads(self, phase: str) -> List[float]:
        """Every read latency of a phase, in seconds, kinds pooled."""
        return [seconds for kind in READ_SHARES
                for seconds in self.timings.samples(f"{phase}.{kind}")]

    def write(self) -> None:
        """The next request of the write stream, on the writer's
        connection: 8 new triples, or — every 8th — the removal of the
        batch sent four writes earlier; either waits for its flush."""
        self._sent += 1
        victim = self._sent - 4
        if self._sent % REMOVE_EVERY == 0 and victim in self.present:
            verb, index, batch = "remove", victim, self.present[victim]
        else:
            verb, index = "add", self._sent
            batch = self.dataset.fresh_batch("h", index, WRITE_BATCH)
        body = ntriples.serialize(batch).encode("utf-8")
        elapsed, (status, reply) = self._timed(
            "serving.http_write",
            lambda: self._writer.post(f"/{verb}?wait=1", body))
        if not self._count(status == 200 and b'"flushed"' in reply):
            return
        self.timings.record("http_write", elapsed)
        if verb == "add":
            self.present[index] = batch
        else:
            self.removed[index] = self.present.pop(index)

    def mixed_phase(self, seconds: float) -> None:
        """The reader beside the writer (a thread) for ``seconds``; the
        reader goes on until the writer's last reply is in, and the
        phase ends once the checkpoint behind that write has finished."""
        stop_at = time.perf_counter() + seconds
        done = threading.Event()

        def write_until_stop() -> None:
            try:
                while time.perf_counter() < stop_at:
                    self.write()
            finally:
                done.set()

        writer = threading.Thread(target=write_until_stop)
        writer.start()
        while not done.is_set():
            self.read("http_mixed")
        writer.join()
        self.settle()

    def settle(self, timeout: float = 5.0) -> None:
        """Wait until the checkpoint behind the last write has truncated
        the log, so its CPU and I/O are not charged to the next stage."""
        deadline = time.perf_counter() + timeout
        while time.perf_counter() < deadline:
            status, body = self._reader.get("/stats")
            if status == 200 and json.loads(body)["wal"]["depth"] == 0:
                return
            time.sleep(0.01)

    def probe_durability(self) -> None:
        """Every acknowledged add is readable, every acknowledged removal
        gone — asked of the server booted after the crash."""
        client = Client(self.server.address)
        link = self.dataset.link.value
        try:
            for expect_present, batches in ((True, self.present),
                                            (False, self.removed)):
                for index, batch in batches.items():
                    solutions = query_solutions(
                        client, f"<{batch[0].subject.value}> <{link}> ?o")
                    want = len(batch) if expect_present else 0
                    self.tally.gate(
                        solutions is not None and len(solutions) == want,
                        f"durability: write {index} "
                        f"{'lost' if expect_present else 'resurrected'} "
                        "after kill -9",
                    )
        finally:
            client.close()
