"""Figure 7 — memory-hierarchy counters for the closure benchmark.

Paper: cache misses, dTLB misses and page faults *per inferred triple*
for chains of 500/1000/2500 nodes, measured with `perf`: Inferray stays
memory-friendly, OWLIM (RETE) struggles with page faults and TLB
misses, RDFox sits between and degrades with size.

Reproduction via :mod:`paper.memsim`: each engine runs instrumented
with a RecordingTracer (Inferray through
:func:`paper.instrumented_engine`); the trace replays through the simulated
Xeon-E3-like hierarchy (32K L1d / 8M LLC / 64-entry TLB / 4K pages).
Chains are scaled to 100/200/400 nodes.  Each cell also reports the
resident closure's **bytes per entailed triple**.

The report additionally carries a full-vs-hybrid resident-closure
comparison over a hierarchy-heavy dataset: ``materialize="hybrid"``
(:mod:`repro.litemat`) absorbs the hierarchy rules into the interval
encoding, so it must answer the same closure from fewer stored triples,
fewer resident bytes per entailed triple and a faster flush.

A third section compares the **kernel backends' resident closures** on
BSBM- and LUBM-shaped datasets: the flat backends (python / numpy) sit
at 16 bytes/pair per array, the ``compressed`` backend stores
delta-encoded blocks — the report carries measured bytes/triple, the
compression ratio against the flat baseline, wall-clock and a closure
hash proving the answers are identical (CI gates ratio >= 4x and hash
equality via ``check_bench_schema.py``).

Run:     python benchmarks/bench_fig7_memory_closure.py [--smoke] [--json OUT]
Pytest:  pytest benchmarks/bench_fig7_memory_closure.py --benchmark-only
"""

import argparse
import hashlib
import json
import time

import pytest

from paper import instrumented_engine
from paper.bench.figures import counters_to_bars, render_bars
from paper.bench.harness import format_table
from paper.memsim.hierarchy import replay_trace
from paper.memsim.tracer import RecordingTracer
from repro.baselines.hashjoin import HashJoinEngine
from repro.baselines.rete import ReteEngine
from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.datasets.chains import subclass_chain, subclass_tree, subproperty_chain
from repro.datasets.lubm import lubm_like
from repro.memsim.probe import measure_store
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS

LENGTHS = [50, 100, 200]

ENGINES = {
    "inferray": instrumented_engine,
    "hashjoin": HashJoinEngine,
    "rete": ReteEngine,
}

#: Longest chain each engine is asked to run (the paper's Figure 7 also
#: stops OWLIM's bars where Table 4 times out).  RETE's join work is
#: O(n³) in the chain length; past this cap a cell prints '–'.
MAX_LENGTH = {"inferray": 10_000, "hashjoin": 1_000, "rete": 100}


def measure_counters(engine_name, data, ruleset="rho-df"):
    """(per-triple counters, inferred count, bytes/triple) for one run.

    ``bytes_per_triple`` is the resident closure (pair arrays + caches)
    divided by the total entailed triples — None for baselines that do
    not expose their resident size.
    """
    tracer = RecordingTracer()
    factory = ENGINES[engine_name]
    engine = factory(ruleset, tracer=tracer)
    engine.load_triples(data)
    engine.materialize()
    inferred = engine.stats.n_inferred
    counters = replay_trace(tracer.ops)
    memory_of = getattr(engine, "memory_bytes", None)
    n_total = engine.stats.n_total
    bytes_per_triple = (
        memory_of() / n_total if memory_of is not None and n_total else None
    )
    return counters.per_triple(inferred), inferred, bytes_per_triple


def run_figure(lengths=None):
    rows = []
    for length in lengths or LENGTHS:
        data = subclass_chain(length)
        for engine_name in ENGINES:
            if length > MAX_LENGTH[engine_name]:
                rows.append((length, engine_name, None, None, None))
                continue
            per_triple, inferred, bytes_per_triple = measure_counters(
                engine_name, data
            )
            rows.append(
                (length, engine_name, inferred, per_triple, bytes_per_triple)
            )
    return rows


# ----------------------------------------------------------------------
# Full-vs-hybrid resident-closure comparison
# ----------------------------------------------------------------------
def hierarchy_dataset(depth=8, instances_per_leaf=2, prop_nodes=16, facts=40):
    """A hierarchy-heavy workload: a complete binary class tree with
    typed instances at the leaves, plus a subPropertyOf chain carrying
    data facts and a domain on its top property.

    Full mode materializes the quadratic tree/chain closures, each
    instance's ancestor types and each fact's super-property copies;
    hybrid mode stores none of that.
    """
    data = list(subclass_tree(depth))
    n_nodes = sum(2**level for level in range(depth + 1))
    first_leaf = n_nodes - 2**depth
    instance = 0
    for leaf in range(first_leaf, n_nodes):
        for _ in range(instances_per_leaf):
            data.append(
                Triple(
                    IRI(f"http://example.org/inst/i{instance}"),
                    RDF.type,
                    IRI(f"http://example.org/tree/n{leaf}"),
                )
            )
            instance += 1
    data.extend(subproperty_chain(prop_nodes))
    bottom = IRI("http://example.org/pchain/n0")
    top = IRI(f"http://example.org/pchain/n{prop_nodes - 1}")
    data.append(Triple(top, RDFS.domain, IRI("http://example.org/tree/n0")))
    for i in range(facts):
        data.append(
            Triple(
                IRI(f"http://example.org/fact/s{i}"),
                bottom,
                IRI(f"http://example.org/fact/o{i}"),
            )
        )
    return data


def run_hybrid_comparison(*, smoke=False, ruleset="rdfs-default"):
    """Flush the hierarchy dataset under both modes; compare residency.

    Returns the ``"hybrid"`` report section: per-mode stored/entailed
    counts, resident bytes, bytes per entailed triple and flush wall
    time, plus the hybrid/full ratios and an answer-equality check over
    the complete entailed closure.
    """
    depth = 5 if smoke else 8
    data = hierarchy_dataset(depth=depth)
    modes = {}
    answers = {}
    for mode in ("full", "hybrid"):
        engine = InferrayEngine(ruleset, materialize_mode=mode)
        engine.load_triples(data)
        started = time.perf_counter()
        stats = engine.materialize()
        flush_seconds = time.perf_counter() - started
        view = engine.read_view
        entailed = view.n_triples
        memory = engine.memory_bytes()
        answers[mode] = sorted(view.triples())
        modes[mode] = {
            "stored_triples": engine.main.n_triples,
            "entailed_triples": entailed,
            "memory_bytes": memory,
            "bytes_per_triple": memory / entailed if entailed else None,
            "flush_seconds": flush_seconds,
            "iterations": stats.iterations,
            "absorbed_rules": len(stats.absorbed_rules),
        }
    full, hybrid = modes["full"], modes["hybrid"]
    return {
        "dataset": {
            "name": "class-tree+prop-chain",
            "tree_depth": depth,
            "n_asserted": len(data),
            "ruleset": ruleset,
        },
        "modes": modes,
        "answers_match": answers["full"] == answers["hybrid"],
        "comparison": {
            "stored_triples_ratio": (
                hybrid["stored_triples"] / full["stored_triples"]
            ),
            "bytes_per_triple_ratio": (
                hybrid["bytes_per_triple"] / full["bytes_per_triple"]
            ),
            "flush_speedup": (
                full["flush_seconds"] / hybrid["flush_seconds"]
                if hybrid["flush_seconds"]
                else None
            ),
        },
    }


# ----------------------------------------------------------------------
# Kernel-backend resident-closure comparison (memory curves)
# ----------------------------------------------------------------------
#: (dataset name, generator, full scale, smoke scale).
BACKEND_DATASETS = [
    ("bsbm", bsbm_like, 10_000, 300),
    ("lubm", lubm_like, 500, 20),
]


def _closure_hash(engine) -> str:
    """SHA-256 over the sorted encoded closure (backend-independent:
    dictionary ids are a pure function of the asserted input order)."""
    digest = hashlib.sha256()
    for triple in sorted(engine.main.triples()):
        digest.update(repr(triple).encode("ascii"))
    return digest.hexdigest()


def measure_backend(backend, data, *, ruleset="rdfs-default"):
    """One backend's closure: residency report + wall clock + hash."""
    engine = InferrayEngine(ruleset, backend=backend)
    engine.load_triples(data)
    started = time.perf_counter()
    engine.materialize()
    wall_seconds = time.perf_counter() - started
    # Touch every ⟨o, s⟩ view so the caches are part of the residency
    # measurement on every backend (the closure scan builds none).
    for property_id in engine.main.property_ids():
        engine.main.table(property_id).os_pairs()
    report = measure_store(engine).as_dict()
    report["wall_seconds"] = wall_seconds
    report["answers_sha256"] = _closure_hash(engine)
    return report


def run_backend_comparison(*, smoke=False, ruleset="rdfs-default"):
    """Materialize each dataset on every backend; compare residency.

    Returns the ``"backends"`` report section: per-dataset, per-backend
    resident bytes/triple curves, wall clock and answer hashes, plus
    the compressed-vs-flat-baseline ratios the CI gate checks
    (``resident_ratio`` >= 4, identical ``answers_sha256``).
    """
    baseline = "numpy"
    backends = ["python", "numpy", "compressed"]
    datasets = []
    for name, generate, full_scale, smoke_scale in BACKEND_DATASETS:
        scale = smoke_scale if smoke else full_scale
        data = generate(scale)
        legs = {}
        for backend in backends:
            legs[backend] = measure_backend(backend, data, ruleset=ruleset)
        flat, compressed = legs[baseline], legs["compressed"]
        datasets.append(
            {
                "dataset": name,
                "scale": scale,
                "n_asserted": len(data),
                "backends": legs,
                "comparison": {
                    "baseline": baseline,
                    "resident_ratio": (
                        flat["resident_bytes"] / compressed["resident_bytes"]
                        if compressed["resident_bytes"]
                        else None
                    ),
                    "wall_ratio": (
                        compressed["wall_seconds"] / flat["wall_seconds"]
                        if flat["wall_seconds"]
                        else None
                    ),
                    "answers_match": (
                        len(
                            {
                                leg["answers_sha256"]
                                for leg in legs.values()
                            }
                        )
                        == 1
                    ),
                },
            }
        )
    return {
        "ruleset": ruleset,
        "baseline_backend": baseline,
        "datasets": datasets,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small sizes for CI (shorter chains, shallower tree)",
    )
    parser.add_argument(
        "--json", metavar="PATH", help="also write the report as JSON"
    )
    args = parser.parse_args(argv)

    lengths = LENGTHS[:1] if args.smoke else LENGTHS
    rows = run_figure(lengths)
    headers = [
        "chain / engine",
        "inferred",
        "LLC miss/t",
        "dTLB miss/t",
        "pagefault/t",
        "L1d rate",
        "bytes/t",
    ]
    table = []
    for length, engine_name, inferred, per, bytes_per_triple in rows:
        if per is None:
            table.append(
                [f"{length} {engine_name}", "–", "–", "–", "–", "–", "–"]
            )
            continue
        table.append(
            [
                f"{length} {engine_name}",
                f"{inferred:,}",
                f"{per['cache_misses_per_triple']:.3f}",
                f"{per['tlb_misses_per_triple']:.3f}",
                f"{per['page_faults_per_triple']:.4f}",
                f"{per['l1_miss_rate']:.3f}",
                f"{bytes_per_triple:.1f}"
                if bytes_per_triple is not None
                else "–",
            ]
        )
    print("Figure 7 — simulated memory counters per inferred triple")
    print("(transitivity closure benchmark)")
    print(format_table(headers, table))

    # Figure-style grouped bars for each panel.
    panel_rows = [
        (f"chain{length}", engine_name, per)
        for length, engine_name, _, per, _ in rows
    ]
    for metric, label in (
        ("cache_misses_per_triple", "Cache (LLC) misses / triple"),
        ("tlb_misses_per_triple", "dTLB misses / triple"),
        ("page_faults_per_triple", "Page faults / triple"),
    ):
        print()
        print(render_bars(label, counters_to_bars(panel_rows, metric)))
    print(
        "\nExpected shape: Inferray lowest & size-stable on TLB misses and"
        "\npage faults; RETE worst by orders of magnitude; hash in between."
    )

    hybrid = run_hybrid_comparison(smoke=args.smoke)
    full_row = hybrid["modes"]["full"]
    hybrid_row = hybrid["modes"]["hybrid"]
    print(
        "\nFull vs hybrid resident closure "
        f"({hybrid['dataset']['name']}, depth "
        f"{hybrid['dataset']['tree_depth']}, "
        f"{hybrid['dataset']['n_asserted']} asserted):"
    )
    print(
        format_table(
            ["mode", "stored", "entailed", "bytes/t", "flush ms", "absorbed"],
            [
                [
                    mode,
                    f"{row['stored_triples']:,}",
                    f"{row['entailed_triples']:,}",
                    f"{row['bytes_per_triple']:.1f}",
                    f"{row['flush_seconds'] * 1000:.1f}",
                    str(row["absorbed_rules"]),
                ]
                for mode, row in (("full", full_row), ("hybrid", hybrid_row))
            ],
        )
    )
    comparison = hybrid["comparison"]
    print(
        f"answers match: {hybrid['answers_match']}; hybrid stores "
        f"{comparison['stored_triples_ratio']:.2f}x the triples at "
        f"{comparison['bytes_per_triple_ratio']:.2f}x the bytes/triple, "
        f"flushing {comparison['flush_speedup']:.2f}x faster"
    )

    backends = run_backend_comparison(smoke=args.smoke)
    print(
        f"\nKernel-backend resident closures "
        f"(baseline: {backends['baseline_backend']}):"
    )
    backend_table = []
    for row in backends["datasets"]:
        for backend, leg in row["backends"].items():
            backend_table.append(
                [
                    f"{row['dataset']}-{row['scale']} {backend}",
                    f"{leg['n_triples']:,}",
                    f"{leg['resident_bytes']:,}",
                    f"{leg['bytes_per_triple']:.2f}",
                    f"{leg['compression_ratio']:.2f}x",
                    f"{leg['wall_seconds']:.3f}",
                ]
            )
    print(
        format_table(
            ["dataset backend", "triples", "resident B", "B/t",
             "vs flat", "wall s"],
            backend_table,
        )
    )
    for row in backends["datasets"]:
        cmp_row = row["comparison"]
        print(
            f"{row['dataset']}-{row['scale']}: compressed closure is "
            f"{cmp_row['resident_ratio']:.2f}x smaller than "
            f"{cmp_row['baseline']} at {cmp_row['wall_ratio']:.2f}x the "
            f"wall clock; answers match: {cmp_row['answers_match']}"
        )

    if args.json:
        report = {
            "table": "hybrid-closure",
            "smoke": args.smoke,
            "memsim": [
                {
                    "chain": length,
                    "engine": engine_name,
                    "inferred": inferred,
                    "counters": per,
                    "bytes_per_triple": bytes_per_triple,
                }
                for length, engine_name, inferred, per, bytes_per_triple in rows
                if per is not None
            ],
            "hybrid": hybrid,
            "backends": backends,
        }
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")


@pytest.mark.benchmark(group="fig7-memsim")
def test_inferray_memsim_chain100(benchmark):
    data = subclass_chain(100)
    per, _, bytes_per_triple = benchmark(
        lambda: measure_counters("inferray", data)
    )
    assert per["tlb_misses_per_triple"] < 1.0
    assert bytes_per_triple is not None and bytes_per_triple > 0


@pytest.mark.benchmark(group="fig7-memsim")
def test_hashjoin_memsim_chain100(benchmark):
    data = subclass_chain(100)
    per, _, _ = benchmark(lambda: measure_counters("hashjoin", data))
    assert per["tlb_misses_per_triple"] > 0.0


@pytest.mark.benchmark(group="fig7-memsim")
def test_backend_memory_curves_smoke(benchmark):
    section = benchmark(lambda: run_backend_comparison(smoke=True))
    for row in section["datasets"]:
        comparison = row["comparison"]
        assert comparison["answers_match"], row["dataset"]
        assert comparison["resident_ratio"] > 4.0, (
            row["dataset"],
            comparison,
        )


if __name__ == "__main__":
    main()
