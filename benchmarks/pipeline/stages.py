"""The untraced run: every end-to-end metric, through the public facade.

One pipeline runs over every workload — N-Triples file → closure → store
file → queries → small updates → HTTP — against the default configuration
(``backend=auto``, ``materialize=full``, ``workers=1``).

``--seconds`` is divided among the timed stages by :data:`SHARES`, and
the stages are run in :data:`ROUNDS` rounds rather than one after the
other, so that every metric is a median over the whole run.  In each
round a stage repeats its operation until its slice of the round is
spent, at least once — a slow operation gets fewer samples, never a
smaller input.  Every sample is divided by the machine's speed at the
time it was taken (see :mod:`speed`): the box changes speed by up to
1.6× for seconds to minutes at a time, and wall seconds alone report
that, not the program.
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from repro import InferrayEngine, Store
from repro.rdf import ntriples
from repro.rdf.terms import Triple
from repro.rdf.vocabulary import RDF

import checker
import httpload
from report import HERE, Metrics, Tally
from speed import Timings
from workloads import WORKLOADS, Dataset

#: Share of ``--seconds`` each timed stage may spend.
SHARES = {
    "ingest": 0.30,
    "closure": 0.12,
    "load": 0.10,
    "query_selective": 0.05,
    "query_join": 0.10,
    "add": 0.08,
    "delete": 0.12,
    "http_read": 0.13,
}
ROUNDS = 4

#: Short operations are timed in blocks of this many seconds, one
#: machine-speed reading on either side.  The machine's speed moves
#: within a second: 0.1 s blocks gave run-to-run spreads two thirds of
#: what 0.25–0.5 s blocks gave, and shorter ones no less.
BLOCK_S = 0.1

#: The oracle and brute-force gates run on the same generators at this
#: fraction of the run's scale (1/50 of the issue's reference sizes).
GATE_SCALE = 1 / 25

ADD_BATCH = 50
#: Set-up is repeated at least this many times, and for at least this
#: share of ``--seconds`` (which only a small input takes more reps to fill).
SETUP_REPS = 5
SETUP_SHARE = 1 / 30


@dataclass
class Run:
    """State one benchmark run threads through its stages."""

    workload: str
    seed: int
    seconds: float
    scale: float
    work_dir: str
    metrics: Metrics = field(default_factory=Metrics)
    tally: Tally = field(default_factory=Tally)
    timings: Timings = field(default_factory=Timings)
    resolved: Dict[str, object] = field(default_factory=dict)
    dataset: Optional[Dataset] = None
    nt_path: str = ""

    def path(self, name: str) -> str:
        return os.path.join(self.work_dir, name)

    def slice(self, stage: str) -> float:
        return SHARES[stage] * self.seconds

    def note_configuration(self, engine: InferrayEngine, stats) -> None:
        """Record what the default configuration resolved to."""
        self.resolved.update(
            backend=engine.kernels.name,
            materialize_mode=stats.materialize_mode,
            parallel_mode=stats.parallel_mode,
            workers=stats.workers,
            n_asserted=len(self.dataset.triples),
            n_triples=stats.n_total,
        )


def spend(budget: float, operation: Callable[[], None]) -> None:
    """Repeat ``operation`` until ``budget`` seconds have passed; at
    least once.  For operations that open their own timing block."""
    deadline = time.perf_counter() + budget
    while True:
        operation()
        if time.perf_counter() >= deadline:
            return


def spend_in_blocks(run: Run, budget: float,
                    operation: Callable[[], None]) -> None:
    """The same for short operations: repeated inside timing blocks of
    :data:`BLOCK_S` seconds each."""
    deadline = time.perf_counter() + budget

    def one_block() -> None:
        block_end = min(deadline, time.perf_counter() + BLOCK_S)
        with run.timings.block():
            spend(block_end - time.perf_counter(), operation)

    spend(budget, one_block)


# ----------------------------------------------------------------------
# Set-up: seed → dataset → N-Triples file
# ----------------------------------------------------------------------
def setup(run: Run) -> None:
    """Generate and serialize the input, :data:`SETUP_REPS` times or more.

    ``setup_s`` is the median of the complete set-ups, so that work a
    later change moves out of the timed stages and into set-up shows.
    Afterwards the dataset is frozen out of the cyclic collector: the
    benchmark's own 10⁵ input objects would otherwise be re-scanned by
    every full collection the program under test triggers.
    """
    run.nt_path = run.path("input.nt")

    def set_up_once() -> None:
        with run.timings.block():
            started = time.perf_counter()
            run.dataset = WORKLOADS[run.workload].build(run.scale, run.seed)
            with open(run.nt_path, "w", encoding="utf-8") as handle:
                handle.write(ntriples.serialize(run.dataset.triples))
            run.timings.record("setup_s", time.perf_counter() - started)
        run.tally.op()

    for _ in range(SETUP_REPS - 1):
        set_up_once()
    spend(SETUP_SHARE * run.seconds, set_up_once)
    gc.collect()
    gc.freeze()


# ----------------------------------------------------------------------
# The operations
# ----------------------------------------------------------------------
def ingest(path: str, ruleset: str) -> Store:
    """What a user with a file does: load it and close it."""
    store = Store.from_file(path, ruleset=ruleset)
    store.materialize()
    return store


def loaded_engine(dataset: Dataset, **options) -> InferrayEngine:
    engine = InferrayEngine(dataset.ruleset, **options)
    engine.load_triples(dataset.triples)
    return engine


def timed_closure(run: Run, **options) -> InferrayEngine:
    """``materialize()`` alone on a freshly loaded engine: the paper's clock."""
    engine = loaded_engine(run.dataset, **options)
    gc.collect()
    with run.timings.block():
        started = time.perf_counter()
        engine.materialize()
        run.timings.record("closure_s", time.perf_counter() - started)
    run.tally.op()
    return engine


def peak_rss(run: Run, reference: checker.Digest) -> None:
    """One ingest in a fresh interpreter; its high-water mark is the
    memory a user must have to get from this file to a closure."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--child-ingest",
         run.nt_path, run.dataset.ruleset],
        env=httpload.child_env(), capture_output=True, text=True, timeout=170,
    )
    if not run.tally.op(out.returncode == 0):
        raise RuntimeError(f"child ingest failed:\n{out.stderr[-2000:]}")
    report = json.loads(out.stdout.strip().splitlines()[-1])
    run.metrics.set("peak_rss_mb", "MB", report["hwm_kb"] / 1024.0)
    run.tally.gate(
        (report["n_triples"], report["sha256"]) == reference,
        "closure digest: fresh-process ingest differs from in-process",
    )


def child_ingest(path: str, ruleset: str) -> int:
    """Body of ``run.py --child-ingest``: exactly one ingest, then report.

    The high-water mark is ``VmHWM`` — ``ru_maxrss`` would do, but Linux
    carries the parent's peak into it across ``exec`` — and it is read
    before the digest is computed, so the check's buffers are not in it.
    """
    store = ingest(path, ruleset)
    with open("/proc/self/status", "r", encoding="ascii") as status:
        hwm_kb = next(int(line.split()[1]) for line in status
                      if line.startswith("VmHWM:"))
    size, sha = checker.closure_digest(store.engine.main)
    print(json.dumps({"hwm_kb": hwm_kb, "n_triples": size, "sha256": sha}))
    return 0


class Updates:
    """Write → flush → publish → probe, for small adds and small deletes."""

    def __init__(self, run: Run, store: Store):
        self.run = run
        self.store = store
        self.rng = random.Random(run.seed * 31 + 5)
        self.applied: List[List[Triple]] = []

    def add(self) -> None:
        dataset, store = self.run.dataset, self.store
        index = len(self.applied)
        batch = dataset.fresh_batch("a", index, ADD_BATCH)
        inferred = Triple(batch[0].subject, RDF.type, dataset.link_domain)
        started = time.perf_counter()
        store.add(batch)
        store.materialize()
        snapshot = store.snapshot()
        seen = snapshot.contains(batch[-1]) and snapshot.contains(inferred)
        self.run.timings.record("add", time.perf_counter() - started)
        self.applied.append(batch)
        self.run.tally.gate(
            seen, f"add batch {index} not visible after its flush")

    def delete(self) -> None:
        store = self.store
        batch = self.rng.choice([b for b in self.applied if len(b) >= 8])
        victims = self.rng.sample(batch, self.rng.randint(1, 8))
        with self.run.timings.block():
            started = time.perf_counter()
            store.remove(victims)
            store.materialize()
            snapshot = store.snapshot()
            gone = not snapshot.contains(victims[0])
            self.run.timings.record("delete", time.perf_counter() - started)
        for victim in victims:
            batch.remove(victim)
        self.run.tally.gate(
            gone, "removed triple still visible after its flush")


# ----------------------------------------------------------------------
# Correctness gate at reduced scale
# ----------------------------------------------------------------------
def gate_against_oracle(run: Run) -> None:
    """numpy, compressed and hybrid closures equal the datalog oracle's,
    and every query template's answers equal a brute-force match over
    the oracle's closure — all at :data:`GATE_SCALE` of this run."""
    small = WORKLOADS[run.workload].build(run.scale * GATE_SCALE, run.seed)
    oracle = checker.oracle_closure(small.triples, small.ruleset)
    stores = {
        "numpy": Store(small.triples, ruleset=small.ruleset),
        "compressed": Store(
            small.triples, ruleset=small.ruleset, backend="compressed"
        ),
        "hybrid": Store(
            small.triples, ruleset=small.ruleset, materialize="hybrid"
        ),
    }
    digests = {}
    for name, store in stores.items():
        run.tally.gate(
            frozenset(store.triples()) == oracle,
            f"{name} closure differs from the datalog oracle "
            f"at 1/{round(1 / GATE_SCALE)} scale",
        )
        digests[name] = checker.encoded_digest(store.encoded_triples())
    run.tally.gate(
        len(set(digests.values())) == 1,
        f"closure digests differ across configurations: {digests}",
    )
    brute = checker.BruteForce(oracle)
    snapshot = stores["numpy"].snapshot()
    for _, text in small.representative_queries(run.seed):
        run.tally.gate(
            checker.answer_digest(snapshot.solutions(text))
            == checker.answer_digest(brute.solutions(text)),
            f"Snapshot.solutions differs from brute force on {text!r}",
        )


def representative_answers(run: Run, snapshot) -> Dict[str, checker.Digest]:
    """Answer digest of one instance of every query template."""
    return {
        text: checker.answer_digest(snapshot.solutions(text))
        for _, text in run.dataset.representative_queries(run.seed)
    }


def check_served_answers(run: Run, server: httpload.Server,
                         answers: Dict[str, checker.Digest]) -> None:
    """``GET /query`` returns what ``Snapshot.solutions`` returned."""
    client = httpload.Client(server.address)
    try:
        for text, digest in answers.items():
            solutions = httpload.query_solutions(client, text)
            run.tally.gate(
                solutions is not None
                and checker.answer_digest(solutions) == digest,
                f"GET /query differs from Snapshot.solutions on {text!r}",
            )
    finally:
        client.close()


@contextmanager
def served(run: Run, saved: str, answers: Dict[str, checker.Digest],
           recorder=None) -> Iterator[httpload.Traffic]:
    """A ``repro serve`` subprocess on the saved closure, for the body to
    load through the yielded :class:`~httpload.Traffic`.

    On entry the served answers are checked against the in-process ones;
    after the body the server is killed with SIGKILL, a new one boots on
    the same WAL (``traffic.recovery_s``), and every acknowledged write
    is asked back.
    """
    server = httpload.Server(saved, run.path("serve.wal"))
    server.start()
    try:
        check_served_answers(run, server, answers)
        traffic = httpload.Traffic(server, run.dataset, run.seed, run.tally,
                                   run.timings, recorder)
        try:
            yield traffic
        finally:
            traffic.close()
        server.kill()
        traffic.recovery_s = server.start()
        traffic.probe_durability()
    finally:
        server.stop()


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def run_untraced(run: Run) -> None:
    """Every end-to-end metric of one workload."""
    metrics, tally = run.metrics, run.tally
    setup(run)
    dataset = run.dataset

    # Once through everything, unmeasured: warms each path, yields the
    # artefacts later stages need, and checks them against each other.
    store = ingest(run.nt_path, dataset.ruleset)
    run.note_configuration(store.engine, store.stats)
    reference = checker.closure_digest(store.engine.main)
    metrics.set("resident_bytes_per_triple", "B",
                store.memory_bytes() / store.n_triples)
    saved = run.path("closure.store")
    store.save(saved)
    tally.gate(
        checker.closure_digest(Store.load(saved).engine.main) == reference,
        "closure digest: reloaded store differs from the one saved",
    )
    peak_rss(run, reference)
    snapshot = store.snapshot()
    answers = representative_answers(run, snapshot)
    # The store, its dictionary and the snapshot live through every timed
    # stage; frozen like the input, they are not re-scanned by the full
    # collections those stages trigger.
    gc.collect()
    gc.freeze()
    with served(run, saved, answers) as traffic:
        measure_rounds(run, store, reference, snapshot, saved, traffic)
    store.close()
    gate_against_oracle(run)

    timings = run.timings
    for name in ("setup_s", "ingest_s", "closure_s", "load_s"):
        metrics.add(name, "s", timings.samples(name))
    # A class's value is the median over its templates of each template's
    # median latency (see workloads.Template for why not a pooled p50).
    for cls in ("selective", "join"):
        metrics.add(f"query_{cls}_p50_ms", "ms", [
            statistics.median(timings.samples(name)) * 1e3
            for name in timings.names(f"query.{cls}.")
        ])
    for name in ("add", "delete"):
        metrics.add(f"{name}_visible_p50_ms", "ms",
                    [s * 1e3 for s in timings.samples(name)])
    metrics.set("http_read_mean_ms", "ms", traffic.read_mean_ms("http_read"))
    run.resolved["machine_speed"] = round(timings.machine_speed, 3)


def measure_rounds(run: Run, store: Store, reference: checker.Digest,
                   snapshot, saved: str, traffic: httpload.Traffic) -> None:
    """The timed stages, :data:`ROUNDS` times round."""
    dataset, tally, timings = run.dataset, run.tally, run.timings
    probe = dataset.triples[len(dataset.triples) // 2]
    updates = Updates(run, store)
    queries = {cls: dataset.class_queries(cls, run.seed)
               for cls in ("selective", "join")}

    def ingest_once() -> None:
        gc.collect()
        with timings.block():
            started = time.perf_counter()
            ingested = ingest(run.nt_path, dataset.ruleset)
            timings.record("ingest_s", time.perf_counter() - started)
        tally.op(ingested.n_triples == reference[0])

    def closure_once() -> None:
        engine = timed_closure(run)
        tally.gate(
            checker.closure_digest(engine.main) == reference,
            "closure digest: materialize() alone differs from ingest",
        )

    def load_once() -> None:
        gc.collect()
        started = time.perf_counter()
        found = Store.load(saved).contains(probe)
        timings.record("load_s", time.perf_counter() - started)
        tally.op(found)

    def query_once(cls: str) -> None:
        _, template, text = next(queries[cls])
        started = time.perf_counter()
        snapshot.solutions(text)
        timings.record(f"query.{cls}.{template}",
                       time.perf_counter() - started)
        tally.op()

    def in_blocks(operation: Callable[[], None]) -> Callable[[float], None]:
        return lambda budget: spend_in_blocks(run, budget, operation)

    def alone(operation: Callable[[], None]) -> Callable[[float], None]:
        return lambda budget: spend(budget, operation)

    stages = (
        ("ingest", alone(ingest_once)),
        ("closure", alone(closure_once)),
        ("load", in_blocks(load_once)),
        ("query_selective", in_blocks(lambda: query_once("selective"))),
        ("query_join", in_blocks(lambda: query_once("join"))),
        ("add", in_blocks(updates.add)),
        ("delete", alone(updates.delete)),
        ("http_read", in_blocks(traffic.read)),
    )
    # Every operation runs to its end, so a stage overruns its slice by
    # part of one; each round is given an equal share of what is left of
    # --seconds, which takes the overrun back from the rounds that follow.
    started = time.perf_counter()
    for round_number in range(ROUNDS):
        left = run.seconds - (time.perf_counter() - started)
        round_s = max(0.0, left) / (ROUNDS - round_number)
        for stage, spend_on in stages:
            spend_on(SHARES[stage] * round_s)

    # Untimed: one cycle of the write stream (7 adds, 1 removal), so that
    # the crash that follows has acknowledged writes to lose.
    with timings.block():
        for _ in range(httpload.REMOVE_EVERY):
            traffic.write()
        traffic.settle()
