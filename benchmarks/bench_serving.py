"""Serving-layer load generator — latency/QPS under mixed traffic.

Boots the asyncio reasoning server (`repro.serving`) in-process on an
ephemeral port over a BSBM-like closure, then drives it with keep-alive
``http.client`` worker threads through two phases:

1. **read-only** — N readers hammer ``GET /query`` with a rotating set
   of BGP patterns for the phase duration.
2. **mixed** — the same readers race M writers POSTing small N-Triples
   batches (1 in 8 batches is a retraction burst, which exercises the
   rebuild path); write acceptance is asynchronous (202), so write
   latency measures queueing + back-pressure, while the server's own
   flush metrics (scraped from ``/stats``) report how many coalesced
   incremental flushes the burst collapsed into.

The report (``BENCH_serving.json``) carries client-side p50/p99
latency and QPS per phase and class, 429 back-pressure counts, and the
server's flush/staleness summary — the serving-shaped numbers the
ROADMAP asks for next to the Table-2 inference times.

Run:     python benchmarks/bench_serving.py
JSON:    --json [PATH]   (default BENCH_serving.json)
Smoke:   --smoke    tiny dataset + short phases (the CI serving job
         runs --smoke --json and validates the report schema against
         the committed baseline)
"""

import argparse
import http.client
import json
import threading
import time
import urllib.parse

from repro.core.store_api import Store
from repro.datasets.bsbm import bsbm_like
from repro.serving import ServerThread

BSBM = "http://example.org/bsbm#"  # matches repro.datasets.bsbm._NS

#: BGP patterns the readers rotate through (URL-encoded at setup).
READ_PATTERNS = [
    "?s rdf:type ?t",
    f"?p a <{BSBM}Product>",
    f"?x rdfs:subClassOf <{BSBM}ProductType0>",
    f"?s <{BSBM}producer> ?who",
]


class WorkerStats:
    """Latencies and error counts one worker thread collected."""

    def __init__(self):
        self.latencies = []
        self.errors = 0
        self.rejected = 0  # 429 back-pressure answers (writers)

    def merge(self, others):
        for other in others:
            self.latencies.extend(other.latencies)
            self.errors += other.errors
            self.rejected += other.rejected
        return self


def percentile(values, q):
    if not values:
        return None
    ordered = sorted(values)
    index = min(len(ordered) - 1, max(0, int(q * len(ordered) + 0.5) - 1))
    return ordered[index]


def latency_summary(latencies_s):
    ms = [value * 1000.0 for value in latencies_s]
    return {
        "n": len(ms),
        "p50_ms": percentile(ms, 0.50),
        "p90_ms": percentile(ms, 0.90),
        "p99_ms": percentile(ms, 0.99),
        "mean_ms": (sum(ms) / len(ms)) if ms else None,
        "max_ms": max(ms) if ms else None,
    }


def reader_worker(address, deadline, stats, limit, offset):
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    paths = [
        f"/query?q={urllib.parse.quote(p)}&limit={limit}"
        for p in READ_PATTERNS
    ]
    index = offset  # de-synchronize the rotation across readers
    try:
        while time.monotonic() < deadline:
            path = paths[index % len(paths)]
            index += 1
            started = time.monotonic()
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                response.read()
                status = response.status
            except (http.client.HTTPException, OSError):
                stats.errors += 1
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                continue
            stats.latencies.append(time.monotonic() - started)
            if status != 200:
                stats.errors += 1
    finally:
        conn.close()


def writer_worker(address, deadline, stats, worker_id, batch_size):
    """POST small add batches; every 8th batch retracts the previous
    one (mixed add/remove traffic, hitting the rebuild path)."""
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    batch_no = 0
    last_batch = None
    try:
        while time.monotonic() < deadline:
            batch_no += 1
            if batch_no % 8 == 0 and last_batch:
                verb, body = "/remove", last_batch
                last_batch = None
            else:
                lines = [
                    f"<{BSBM}live/w{worker_id}b{batch_no}i{i}> "
                    f"<{BSBM}producer> <{BSBM}Producer0> ."
                    for i in range(batch_size)
                ]
                body = "\n".join(lines) + "\n"
                verb, last_batch = "/add", body
            started = time.monotonic()
            try:
                conn.request("POST", verb, body=body)
                response = conn.getresponse()
                response.read()
                status = response.status
            except (http.client.HTTPException, OSError):
                stats.errors += 1
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=30)
                continue
            stats.latencies.append(time.monotonic() - started)
            if status == 429:
                stats.rejected += 1
                time.sleep(0.02)  # honour back-pressure, lightly
            elif status not in (200, 202):
                stats.errors += 1
    finally:
        conn.close()


def run_phase(address, *, readers, writers, duration, limit, batch_size):
    deadline = time.monotonic() + duration
    read_stats = [WorkerStats() for _ in range(readers)]
    write_stats = [WorkerStats() for _ in range(writers)]
    threads = [
        threading.Thread(
            target=reader_worker,
            args=(address, deadline, read_stats[i], limit, i),
        )
        for i in range(readers)
    ] + [
        threading.Thread(
            target=writer_worker,
            args=(address, deadline, write_stats[i], i, batch_size),
        )
        for i in range(writers)
    ]
    started = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.monotonic() - started
    reads = WorkerStats().merge(read_stats)
    writes = WorkerStats().merge(write_stats)
    total_requests = len(reads.latencies) + len(writes.latencies)
    phase = {
        "duration_seconds": elapsed,
        "qps_total": total_requests / elapsed if elapsed else None,
        "read": dict(
            latency_summary(reads.latencies),
            qps=len(reads.latencies) / elapsed if elapsed else None,
            errors=reads.errors,
        ),
    }
    if writers:
        phase["write"] = dict(
            latency_summary(writes.latencies),
            qps=len(writes.latencies) / elapsed if elapsed else None,
            errors=writes.errors,
            rejected_429=writes.rejected,
        )
    return phase


def scrape_stats(address):
    host, port = address
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/stats")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def wait_until_clean(address, timeout=60.0):
    """Let the writer drain before sampling final server state."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stats = scrape_stats(address)
        if stats["queue"]["depth"] == 0:
            return stats
        time.sleep(0.05)
    return scrape_stats(address)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--products", type=int, default=2_000,
                        help="BSBM-like scale factor for the seed closure")
    parser.add_argument("--readers", type=int, default=4)
    parser.add_argument("--writers", type=int, default=2)
    parser.add_argument("--duration", type=float, default=5.0,
                        help="seconds per traffic phase")
    parser.add_argument("--batch-size", type=int, default=8,
                        help="triples per write batch")
    parser.add_argument("--limit", type=int, default=50,
                        help="solution cap per read")
    parser.add_argument("--queue-depth", type=int, default=256)
    parser.add_argument("--ruleset", default="rdfs-default")
    parser.add_argument("--backend", default="auto")
    parser.add_argument("--json", nargs="?", const="BENCH_serving.json",
                        default=None, metavar="PATH")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny dataset + short phases for CI")
    args = parser.parse_args(argv)
    if args.smoke:
        args.products = min(args.products, 300)
        args.duration = min(args.duration, 1.5)

    triples = list(bsbm_like(args.products))
    store = Store(triples, ruleset=args.ruleset, backend=args.backend)
    store.materialize()
    print(
        f"seed closure: {len(triples)} asserted -> {store.n_triples} "
        f"triples ({args.ruleset}, {store.engine.kernels.name} kernels)"
    )

    with ServerThread(
        store, port=0, queue_depth=args.queue_depth
    ) as handle:
        address = handle.address
        print(f"server: http://{address[0]}:{address[1]}")

        read_only = run_phase(
            address,
            readers=args.readers,
            writers=0,
            duration=args.duration,
            limit=args.limit,
            batch_size=args.batch_size,
        )
        mixed = run_phase(
            address,
            readers=args.readers,
            writers=args.writers,
            duration=args.duration,
            limit=args.limit,
            batch_size=args.batch_size,
        )
        server_stats = wait_until_clean(address)

    report = {
        "table": "serving",
        "config": {
            "products": args.products,
            "n_asserted": len(triples),
            "n_triples_seed": server_stats["n_triples"],
            "readers": args.readers,
            "writers": args.writers,
            "duration_seconds": args.duration,
            "batch_size": args.batch_size,
            "queue_depth": args.queue_depth,
            "ruleset": args.ruleset,
            "backend": store.engine.kernels.name,
            "smoke": args.smoke,
        },
        "phases": {"read_only": read_only, "mixed": mixed},
        "server": {
            "epoch_final": server_stats["epoch"],
            "n_triples_final": server_stats["n_triples"],
            "flush": server_stats["flush"],
            "queue": server_stats["queue"],
        },
    }

    for label, phase in report["phases"].items():
        read = phase["read"]
        line = f"{label:10s}"
        if read["n"]:  # --readers 0 sends none
            line += (
                f" read p50 {read['p50_ms']:.2f} ms, "
                f"p99 {read['p99_ms']:.2f} ms, {read['qps']:.0f} q/s"
            )
        if "write" in phase:
            write = phase["write"]
            line += (
                f" | write p50 {write['p50_ms']:.2f} ms, "
                f"p99 {write['p99_ms']:.2f} ms, {write['qps']:.0f} w/s, "
                f"{write['rejected_429']} rejected"
            )
        print(line)
    flush = report["server"]["flush"]
    print(
        f"flushes: {flush['flushes']} ({flush['failures']} failed), "
        f"mean batch {flush['mean_batch']:.1f} mutations, "
        f"epoch {report['server']['epoch_final']}"
    )

    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle_:
            json.dump(report, handle_, indent=2)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
