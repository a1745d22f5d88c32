"""Figure 8 — memory-hierarchy counters for the RDFS-Plus benchmark.

Paper: L1d / LLC / dTLB miss rates and page faults per 1K triples over
LUBM 5M–100M and the real-world datasets; Inferray's cache behaviour
"does not vary with the ruleset" and is size-stable, RDFox's L1d rate
degrades on RDFS-Plus (up to 11% on Wordnet), the RETE engine
(OWLIM) trails on TLB misses and page faults.

Reproduction via :mod:`paper.memsim` on LUBM-like 5–25 departments
plus the stand-ins, under RDFS-Plus; Inferray runs through
:func:`paper.instrumented_engine`.

Run:     python benchmarks/bench_fig8_memory_rdfsplus.py [--smoke]
Pytest:  pytest benchmarks/bench_fig8_memory_rdfsplus.py --benchmark-only
"""

import argparse

import pytest

from paper import instrumented_engine
from paper.bench.figures import counters_to_bars, render_bars
from paper.bench.harness import format_table
from paper.memsim.hierarchy import replay_trace
from paper.memsim.tracer import RecordingTracer
from repro.baselines.hashjoin import HashJoinEngine
from repro.baselines.rete import ReteEngine
from repro.datasets.lubm import lubm_like
from repro.datasets.realworld import wikipedia_like, wordnet_like, yago_like

ENGINES = {
    "inferray": instrumented_engine,
    "hashjoin": HashJoinEngine,
    "rete": ReteEngine,
}


def workloads(smoke=False):
    if smoke:
        return [("lubm5", lubm_like(5))]
    return [
        ("lubm5", lubm_like(5)),
        ("lubm10", lubm_like(10)),
        ("lubm25", lubm_like(25)),
        ("Wiki*", wikipedia_like(3)),
        ("Yago*", yago_like(2)),
        ("Wordnet*", wordnet_like(3)),
    ]


def measure_counters(engine_name, data, ruleset="rdfs-plus"):
    tracer = RecordingTracer()
    engine = ENGINES[engine_name](ruleset, tracer=tracer)
    engine.load_triples(data)
    engine.materialize()
    inferred = engine.stats.n_inferred
    counters = replay_trace(tracer.ops)
    return counters.per_triple(max(1, inferred)), inferred


def run_figure(subset=None):
    rows = []
    for name, data in subset or workloads():
        for engine_name in ENGINES:
            per, inferred = measure_counters(engine_name, data)
            rows.append((name, engine_name, inferred, per))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="the smallest dataset only"
    )
    args = parser.parse_args(argv)
    rows = run_figure(workloads(smoke=args.smoke))
    headers = [
        "dataset / engine",
        "inferred",
        "L1d rate",
        "LLC miss/t",
        "dTLB rate",
        "pf / 1K t",
    ]
    table = []
    for name, engine_name, inferred, per in rows:
        table.append(
            [
                f"{name} {engine_name}",
                f"{inferred:,}",
                f"{per['l1_miss_rate']:.3f}",
                f"{per['cache_misses_per_triple']:.3f}",
                f"{per['tlb_miss_rate']:.3f}",
                f"{per['page_faults_per_triple'] * 1000:.2f}",
            ]
        )
    print("Figure 8 — simulated memory counters (RDFS-Plus benchmark)")
    print(format_table(headers, table))

    panel_rows = [
        (name, engine_name, per) for name, engine_name, _, per in rows
    ]
    for metric, label in (
        ("l1_miss_rate", "L1d miss rate"),
        ("cache_misses_per_triple", "LLC misses / triple"),
        ("tlb_miss_rate", "dTLB load-miss rate"),
        ("page_faults_per_triple", "Page faults / triple"),
    ):
        print()
        print(render_bars(label, counters_to_bars(panel_rows, metric)))
    print(
        "\nExpected shape: Inferray size-stable with the lowest TLB/page"
        "\nrates; the hash engine's rates grow with the ruleset complexity;"
        "\nthe RETE engine worst across the board."
    )


@pytest.mark.benchmark(group="fig8-memsim")
def test_inferray_memsim_lubm(benchmark):
    data = lubm_like(3)
    per, _ = benchmark(lambda: measure_counters("inferray", data))
    assert per["page_faults_per_triple"] < 1.0


@pytest.mark.benchmark(group="fig8-memsim")
def test_rete_memsim_lubm(benchmark):
    data = lubm_like(3)
    per, _ = benchmark(lambda: measure_counters("rete", data))
    assert per["page_faults_per_triple"] > 0.0


if __name__ == "__main__":
    main()
