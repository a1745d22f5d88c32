"""The traced run: the same path walked layer by layer, with spans.

Where the untraced run calls the facade (``Store.from_file`` +
``materialize``), this run calls what the facade calls — parse, encode,
commit, materialize — one public function at a time, each inside a span,
and reads ``MaterializationStats`` as returned to split ``materialize()``
into θ prepass, rule firing and merge.  Every metric here is named
``<layer>.<what>`` with the layer being the ``repro`` module measured.
Nothing under ``src/`` is instrumented.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

from repro import InferrayEngine, Store
from repro.dictionary.encoding import encode_dataset
from repro.kernels import get_backend
from repro.litemat import encode_hierarchies
from repro.memsim import measure_store
from repro.query.bgp import Query, parse_bgp
from repro.rdf import ntriples
from repro.serving import WriteAheadLog
from repro.serving.http import json_body

import checker
import httpload
import stages
from report import percentile
from spans import SpanRecorder
from speed import REFERENCE_S, spin
from workloads import QUERY_CLASSES

#: The rules whose firing time is reported on every workload: the six
#: costliest across the four workloads' default runs.
RULES = ("CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1", "SCM-DOM1", "PRP-FP")

KERNEL_BACKENDS = ("numpy", "compressed", "python")
#: Pairs per table the kernel probes see: the same input for all three
#: backends, small enough that the pure-Python one finishes.
KERNEL_PAIR_CAP = 40_000
REPS = 3
#: Share of ``--seconds`` the reader-beside-writer phase runs for.
MIXED_SHARE = 0.2


def timed(operation: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    result = operation()
    return time.perf_counter() - started, result


# ----------------------------------------------------------------------
# File → closure, one layer at a time
# ----------------------------------------------------------------------
def stepped_ingest(run: stages.Run, recorder: SpanRecorder) -> dict:
    """One ingest as the facade performs it, a span around each call."""
    dataset = run.dataset
    op = recorder.new_op()
    with recorder.span("pipeline.ingest", op) as root:
        with recorder.span("rdf.parse"):
            triples = list(ntriples.parse_file(run.nt_path))
        with recorder.span("core.construct"):
            engine = InferrayEngine(dataset.ruleset)
        with recorder.span("dictionary.encode"):
            _, encoded = encode_dataset(triples, engine.dictionary)
        with recorder.span("store.commit"):
            engine.main.add_encoded(encoded)
        before = resource.getrusage(resource.RUSAGE_SELF)
        with recorder.span("core.materialize") as span:
            stats = engine.materialize()
        after = resource.getrusage(resource.RUSAGE_SELF)
    cursor = span["start"]
    for name, seconds in (
        ("closure.prepass", stats.closure_seconds),
        ("rules.fire", stats.inference_seconds),
        ("store.merge", stats.merge_seconds),
    ):
        cursor = recorder.add_child(span, name, cursor, seconds)["end"]
    run.tally.op()
    return {
        "op": op,
        "wall": root["end"] - root["start"],
        "engine": engine,
        "stats": stats,
        "n_parsed": len(triples),
        "cpu_s": (after.ru_utime + after.ru_stime)
        - (before.ru_utime + before.ru_stime),
        "minor_faults": after.ru_minflt - before.ru_minflt,
    }


def trace_ingest(run: stages.Run, recorder: SpanRecorder) -> Store:
    """One cold stepped rep, then REPS warm ones, each followed by the
    facade's ingest so that both see the same stretch of machine speed."""
    metrics, dataset = run.metrics, run.dataset
    cold = stepped_ingest(run, recorder)
    first = next(s for s in recorder.spans
                 if s["op"] == cold["op"] and s["name"] == "core.materialize")
    metrics.set("core.first_materialize_s", "s", first["end"] - first["start"])
    del cold
    warm, facade_s = [], []
    for _ in range(REPS):
        gc.collect()
        warm.append(stepped_ingest(run, recorder))
        gc.collect()
        elapsed, store = timed(
            lambda: stages.ingest(run.nt_path, dataset.ruleset))
        facade_s.append(elapsed)
        run.tally.op()

    def spans_named(name: str) -> List[float]:
        ops = {rep["op"] for rep in warm}
        return [s["end"] - s["start"] for s in recorder.spans
                if s["op"] in ops and s["name"] == name]

    metrics.add("rdf.parse_s", "s", spans_named("rdf.parse"))
    metrics.set("rdf.parse_us_per_triple", "us",
                metrics.value("rdf.parse_s") * 1e6 / warm[0]["n_parsed"])
    metrics.add("dictionary.encode_s", "s", spans_named("dictionary.encode"))
    metrics.add("store.commit_s", "s", spans_named("store.commit"))
    metrics.add("core.materialize_s", "s", spans_named("core.materialize"))
    metrics.add("core.materialize_cpu_s", "s", [r["cpu_s"] for r in warm])
    metrics.add("core.minor_faults", "count", [r["minor_faults"] for r in warm])
    all_stats = [rep["stats"] for rep in warm]
    metrics.add("closure.prepass_s", "s", [s.closure_seconds for s in all_stats])
    metrics.add("rules.fire_s", "s", [s.inference_seconds for s in all_stats])
    metrics.add("store.merge_s", "s", [s.merge_seconds for s in all_stats])
    for rule in RULES:
        metrics.add(f"rules.{rule}_s", "s",
                    [s.per_rule_seconds.get(rule, 0.0) for s in all_stats])
    stats = all_stats[-1]
    engine = warm[-1]["engine"]
    derived = sum(stats.per_rule.values())
    metrics.set("closure.pairs", "count", stats.closure_pairs)
    metrics.set("rules.derived", "count", derived)
    metrics.set("rules.useful_ratio", "ratio",
                stats.n_inferred / derived if derived else 0.0)
    metrics.set("core.iterations", "count", stats.iterations)
    metrics.set("store.n_tables", "count", len(engine.main.property_ids()))
    metrics.set("dictionary.n_terms", "count", len(engine.dictionary))
    run.note_configuration(engine, stats)

    # Self time by layer against the wall clock of the stepped path, and
    # the stepped path against the facade.
    metrics.add("trace.unattributed_share", "ratio", [
        recorder.layer_self_seconds(rep["op"], "pipeline.ingest")
        .get("unattributed", 0.0) / rep["wall"]
        for rep in warm
    ])
    metrics.add("trace.overhead_share", "ratio", [
        (rep["wall"] - facade) / facade for rep, facade in zip(warm, facade_s)
    ])
    run.tally.gate(
        checker.closure_digest(engine.main)
        == checker.closure_digest(store.engine.main),
        "closure digest: stepped path differs from the facade",
    )
    metrics.add("rdf.serialize_s", "s",
                [timed(lambda: ntriples.serialize(dataset.triples))[0]
                 for _ in range(REPS)])
    return store


# ----------------------------------------------------------------------
# The configuration matrix and what hangs off it
# ----------------------------------------------------------------------
def trace_configurations(run: stages.Run, reference: checker.Digest) -> dict:
    """``materialize()`` under each non-default configuration, checked
    against the default closure; returns the engines by name."""
    metrics = run.metrics
    engines: Dict[str, InferrayEngine] = {}

    def materialize(name: str, reps: int, **options) -> None:
        samples = []
        for _ in range(reps):
            engine = stages.loaded_engine(run.dataset, **options)
            gc.collect()
            samples.append(timed(engine.materialize)[0])
            run.tally.op()
            engines[name] = engine
        metrics.add(f"core.materialize_{name}_s", "s", samples)

    materialize("hybrid", 2, materialize_mode="hybrid")
    materialize("thread2", 2, workers=2, parallel_mode="thread")
    materialize("python", 1, backend="python")
    materialize("compressed", 2, backend="compressed")
    for name in ("thread2", "python", "compressed"):
        run.tally.gate(
            checker.closure_digest(engines[name].main) == reference,
            f"closure digest: {name} differs from the default configuration",
        )
    hybrid = engines["hybrid"]
    run.tally.gate(
        checker.encoded_digest(hybrid.read_view.triples()) == reference,
        "closure digest: hybrid view differs from the default configuration",
    )
    metrics.set("litemat.stored_ratio", "ratio",
                hybrid.main.n_triples / reference[0])
    metrics.set("litemat.hybrid_bytes_per_triple", "B",
                hybrid.memory_bytes() / hybrid.read_view.n_triples)
    for engine in engines.values():
        engine.close()
    return engines


def trace_litemat(run: stages.Run) -> None:
    """Interval-encode the asserted class and property hierarchies."""
    engine = stages.loaded_engine(run.dataset)
    pairs = []
    for property_id in (engine.vocab.subClassOf, engine.vocab.subPropertyOf):
        table = engine.main.table(property_id)
        pairs.append(list(table.iter_pairs()) if table is not None else [])
    run.metrics.add("litemat.encode_s", "s",
                    [timed(lambda: encode_hierarchies(*pairs))[0]
                     for _ in range(REPS)])


def trace_memsim(run: stages.Run, default, compressed) -> None:
    run.metrics.set("memsim.bytes_per_triple", "B",
                    measure_store(default).bytes_per_triple)
    run.metrics.set("memsim.compressed_bytes_per_triple", "B",
                    measure_store(compressed).bytes_per_triple)


def trace_kernels(run: stages.Run, engine: InferrayEngine) -> None:
    """Each backend's four primitives on the three largest tables.

    Inputs are prefixes of committed (sorted-unique) pair arrays, so all
    three backends sort, merge, permute and join the very same pairs.
    """
    tables = sorted(engine.main.table_arrays(), key=lambda item: -len(item[1]))
    inputs = []
    rng = random.Random(run.seed)
    for _, flat in tables[:3]:
        pairs = [(int(flat[i]), int(flat[i + 1]))
                 for i in range(0, min(len(flat), 2 * KERNEL_PAIR_CAP), 2)]
        shuffled = pairs[:]
        rng.shuffle(shuffled)

        def staged(chosen) -> array:
            # array('q') is what TripleStore.add_encoded hands the kernels
            return array("q", (v for pair in chosen for v in pair))

        inputs.append({
            "n_pairs": len(pairs),
            "shuffled": staged(shuffled),
            "main": staged(pairs[0::2]),
            "inferred": staged(pairs[1::3] + pairs[0::6]),
        })
    for name in KERNEL_BACKENDS:
        kernels = get_backend(name)
        seconds = {"sort_pairs": [], "merge_new": [], "os_view": [],
                   "merge_join": []}
        for _ in range(REPS):
            total = dict.fromkeys(seconds, 0.0)
            for table in inputs:
                elapsed, ordered = timed(
                    lambda: kernels.sort_pairs(table["shuffled"]))
                total["sort_pairs"] += elapsed
                main = kernels.sort_pairs(table["main"])
                inferred = kernels.sort_pairs(table["inferred"])
                total["merge_new"] += timed(
                    lambda: kernels.merge_new(main, inferred))[0]
                total["os_view"] += timed(lambda: kernels.os_view(ordered))[0]
                # One row per key on the right, as CAX-SCO joins a type
                # table with a class's superclasses: output stays linear.
                keys = kernels.pair_with_constant(
                    kernels.distinct_evens(ordered), 0)
                total["merge_join"] += timed(
                    lambda: kernels.merge_join(ordered, keys))[0]
                run.tally.op(len(ordered) == 2 * table["n_pairs"])
            for primitive, value in total.items():
                seconds[primitive].append(value)
        for primitive, samples in seconds.items():
            run.metrics.add(f"kernels.{name}.{primitive}_s", "s", samples)


# ----------------------------------------------------------------------
# Flush, snapshot, persistence
# ----------------------------------------------------------------------
def trace_store(run: stages.Run, store: Store) -> str:
    """Save/load first (the served leg boots from the file), then the
    flush paths, timing ``materialize()`` alone."""
    metrics = run.metrics
    saved = run.path("closure.store")
    metrics.add("core.save_s", "s",
                [timed(lambda: store.save(saved))[0] for _ in range(REPS)])
    metrics.set("core.disk_bytes_per_triple", "B",
                os.path.getsize(saved) / store.n_triples)
    metrics.add("core.load_s", "s",
                [timed(lambda: Store.load(saved))[0] for _ in range(REPS)])
    batches = []
    incremental, snapshots = [], []
    for index in range(8):
        batch = run.dataset.fresh_batch("t", index, stages.ADD_BATCH)
        batches.append(batch)
        store.add(batch)
        incremental.append(timed(store.materialize)[0])
        snapshots.append(timed(store.snapshot)[0])
        run.tally.op(batch[0] in store)
    rebuild = []
    for batch in batches[:3]:
        store.remove(batch[:4])
        rebuild.append(timed(store.materialize)[0])
        run.tally.op(batch[0] not in store)
    metrics.add("core.incremental_flush_ms", "ms", [s * 1e3 for s in incremental])
    metrics.add("core.snapshot_ms", "ms", [s * 1e3 for s in snapshots])
    metrics.add("core.rebuild_flush_ms", "ms", [s * 1e3 for s in rebuild])
    return saved


# ----------------------------------------------------------------------
# Query evaluation
# ----------------------------------------------------------------------
def trace_queries(run: stages.Run, store: Store, snapshot,
                  recorder: SpanRecorder) -> Dict[str, checker.Digest]:
    """Parse and evaluation apart, then the facade for the tail."""
    metrics = run.metrics
    mix = run.dataset.query_mix(run.seed, 900)
    parse_s: List[float] = []
    eval_s: Dict[str, List[float]] = {cls: [] for cls in QUERY_CLASSES}
    facade_s: Dict[str, List[float]] = {cls: [] for cls in QUERY_CLASSES}
    n_solutions = 0
    deadline = time.perf_counter() + 2 * run.slice("query_join")
    for index, (cls, _, text) in enumerate(mix):
        if index >= 100 and time.perf_counter() > deadline:
            break
        with recorder.span("query.solutions", recorder.new_op()):
            with recorder.span("query.parse") as parse:
                patterns = parse_bgp(text)
            with recorder.span("query.eval") as evaluate:
                rows = list(Query(patterns).execute(snapshot))
        parse_s.append(parse["end"] - parse["start"])
        eval_s[cls].append(evaluate["end"] - evaluate["start"])
        elapsed, solutions = timed(lambda: snapshot.solutions(text))
        facade_s[cls].append(elapsed)
        n_solutions += len(solutions)
        run.tally.gate(len(rows) == len(solutions),
                       f"Query.execute and Snapshot.solutions differ on {text!r}")
    metrics.add("query.parse_bgp_us", "us", [s * 1e6 for s in parse_s])
    for cls in QUERY_CLASSES:
        metrics.add(f"query.eval_ms.{cls}", "ms", [s * 1e3 for s in eval_s[cls]])
        metrics.set(f"query.{cls}_p99_ms", "ms",
                    percentile(facade_s[cls], 0.99) * 1e3)
    metrics.add("query.scan_p50_ms", "ms", [s * 1e3 for s in facade_s["scan"]])
    metrics.set("query.solutions_per_s", "1/s",
                n_solutions / sum(sum(v) for v in facade_s.values()))

    sample = list(itertools.islice(snapshot.encoded_triples(), 20_000))
    decode = store.engine.dictionary.decode_triple
    elapsed, _ = timed(lambda: [decode(e) for e in sample])
    metrics.set("dictionary.decode_us_per_term", "us",
                elapsed * 1e6 / (3 * len(sample)))
    return stages.representative_answers(run, snapshot)


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
def trace_serving(run: stages.Run, saved: str, snapshot, answers,
                  recorder: SpanRecorder) -> None:
    metrics = run.metrics
    dataset = run.dataset

    # Rendering alone, on the solutions the read mix's scan returns.
    solutions = snapshot.solutions(dataset.http_scan)[:100]

    def render() -> bytes:
        return json_body({
            "epoch": 1, "n": len(solutions), "returned": len(solutions),
            "solutions": [{name: term.n3() for name, term in s.items()}
                          for s in solutions],
        })

    metrics.add("serving.render_ms", "ms",
                [timed(render)[0] * 1e3 for _ in range(20)])

    # WAL append (fsync per record) and checkpoint, on a scratch log.
    wal = WriteAheadLog(run.path("scratch.wal"))
    appends, checkpoints = [], []
    try:
        for index in range(40):
            batch = dataset.fresh_batch("l", index, httpload.WRITE_BATCH)
            elapsed, seq = timed(lambda: wal.append("add", batch))
            appends.append(elapsed)
            if index % 8 == 7:
                checkpoints.append(timed(lambda: wal.checkpoint(seq))[0])
    finally:
        wal.close()
    metrics.add("serving.wal_append_ms", "ms", [s * 1e3 for s in appends])
    metrics.add("serving.checkpoint_ms", "ms", [s * 1e3 for s in checkpoints])

    # The three phases, every request a span.
    with stages.served(run, saved, answers, recorder) as traffic:
        client = httpload.Client(traffic.server.address)
        health = []
        try:
            for _ in range(200):
                with recorder.span("serving.health", recorder.new_op()) as span:
                    status, _ = client.get("/health")
                if run.tally.op(status == 200):
                    health.append(span["end"] - span["start"])
            with run.timings.block():
                read_wall, _ = timed(lambda: stages.spend(
                    run.slice("http_read"), traffic.read))
                traffic.mixed_phase(MIXED_SHARE * run.seconds)
            server_stats = json.loads(client.get("/stats")[1])
        finally:
            client.close()
    metrics.set("serving.recovery_s", "s", traffic.recovery_s)
    flush = server_stats["flush"]
    metrics.add("serving.health_rtt_ms", "ms", [s * 1e3 for s in health])
    reads = traffic.reads("http_read")
    for name, samples in (("read", reads),
                          ("read_mixed", traffic.reads("http_mixed"))):
        metrics.add(f"serving.{name}_p50_ms", "ms", [s * 1e3 for s in samples])
        metrics.set(f"serving.{name}_p99_ms", "ms",
                    percentile(samples, 0.99) * 1e3)
    metrics.set("serving.read_ops_per_s", "1/s", len(reads) / read_wall)
    metrics.add("serving.write_p50_ms", "ms",
                [s * 1e3 for s in run.timings.samples("http_write")])
    metrics.set("serving.flush_p50_ms", "ms", (flush["p50_seconds"] or 0.0) * 1e3)
    metrics.set("serving.coalesced_per_flush", "count", flush["mean_batch"] or 0.0)
    metrics.set("serving.rejected_429", "count",
                server_stats["queue"]["rejected_total"])


def trace_cli(run: stages.Run, reference: checker.Digest) -> None:
    """What a command-line user waits: interpreter, imports, ingest, save."""
    out_path = run.path("cli.store")
    elapsed, done = timed(lambda: subprocess.run(
        [sys.executable, "-m", "repro", "save", run.nt_path, "-o", out_path,
         "--ruleset", run.dataset.ruleset],
        env=httpload.child_env(), capture_output=True, text=True, timeout=170,
    ))
    if not run.tally.op(done.returncode == 0):
        raise RuntimeError(f"repro save failed:\n{done.stderr[-2000:]}")
    run.metrics.set("cli.cold_ingest_s", "s", elapsed)
    run.tally.gate(
        checker.closure_digest(Store.load(out_path).engine.main) == reference,
        "closure digest: `repro save` output differs from in-process ingest",
    )


def run_traced(run: stages.Run, trace_dir: str) -> None:
    """Every per-layer metric of one workload, and its trace file.

    The timings here are wall seconds as measured; ``trace.machine_speed``
    (readings of :func:`speed.spin` taken between the sections, 1.0 = the
    reference) says how fast the machine was while they were taken.
    """
    recorder = SpanRecorder()
    speeds: List[float] = []

    def read_speed() -> None:
        speeds.append(REFERENCE_S / statistics.median(spin() for _ in range(3)))

    stages.setup(run)
    read_speed()
    store = trace_ingest(run, recorder)
    reference = checker.closure_digest(store.engine.main)
    read_speed()
    engines = trace_configurations(run, reference)
    trace_litemat(run)
    trace_memsim(run, store, engines["compressed"])
    read_speed()
    trace_kernels(run, store.engine)
    engines.clear()
    snapshot = store.snapshot()
    read_speed()
    answers = trace_queries(run, store, snapshot, recorder)
    saved = trace_store(run, store)
    store.close()
    read_speed()
    trace_serving(run, saved, snapshot, answers, recorder)
    read_speed()
    trace_cli(run, reference)
    stages.gate_against_oracle(run)
    run.metrics.add("trace.machine_speed", "ratio", speeds)
    recorder.write(os.path.join(trace_dir, f"trace-{run.workload}.json"))
