"""Ablation — the cached ⟨o, s⟩ sorted index (paper §4.2).

"Property tables are stored in dynamic arrays sorted on ⟨s,o⟩, along
with a cached version sorted on ⟨o,s⟩ … computed lazily upon need."
This ablation disables the cache (every object-keyed join re-sorts),
quantifying what the lazily-cached second index buys on join-heavy
rulesets.  Both columns run :func:`paper.instrumented_engine`, which
is sequential; the uncached one passes ``cache_os=False``.

Run:     python benchmarks/bench_ablation_oscache.py [--smoke]
Pytest:  pytest benchmarks/bench_ablation_oscache.py --benchmark-only
"""

import argparse
import time

import pytest

from paper import instrumented_engine
from paper.bench.harness import format_table
from repro.datasets.bsbm import bsbm_like
from repro.datasets.lubm import lubm_like


def workloads(smoke=False):
    if smoke:
        return [("bsbm-2k / rdfs-default", bsbm_like(2_000), "rdfs-default")]
    return [
        ("bsbm-2k / rdfs-default", bsbm_like(2_000), "rdfs-default"),
        ("lubm-25 / rdfs-plus", lubm_like(25), "rdfs-plus"),
        ("lubm-50 / rdfs-plus", lubm_like(50), "rdfs-plus"),
    ]


def run_ablation(subset=None, repeats=2):
    rows = []
    for name, data, ruleset in subset or workloads():
        timings = {}
        totals = set()
        for cached in (True, False):
            best = float("inf")
            for _ in range(repeats):
                engine = instrumented_engine(ruleset, cache_os=cached)
                engine.load_triples(data)
                started = time.perf_counter()
                engine.materialize()
                best = min(best, time.perf_counter() - started)
                totals.add(engine.n_triples)
            timings[cached] = best
        assert len(totals) == 1
        rows.append((name, timings))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true",
        help="the smallest workload, one timed run per column",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        rows = run_ablation(workloads(smoke=True), repeats=1)
    else:
        rows = run_ablation()
    headers = ["workload", "cached (ms)", "uncached (ms)", "overhead"]
    table = []
    for name, timings in rows:
        overhead = timings[False] / timings[True]
        table.append(
            [
                name,
                f"{timings[True] * 1000:,.0f}",
                f"{timings[False] * 1000:,.0f}",
                f"{overhead:.2f}x",
            ]
        )
    print("Ablation — cached vs recomputed ⟨o, s⟩ sorted index")
    print(format_table(headers, table))


@pytest.mark.benchmark(group="ablation-oscache")
@pytest.mark.parametrize("cached", [True, False], ids=["cached", "uncached"])
def test_oscache(benchmark, cached):
    data = lubm_like(5)

    def run():
        engine = instrumented_engine("rdfs-plus", cache_os=cached)
        engine.load_triples(data)
        engine.materialize()
        return engine.n_triples

    assert benchmark(run) > len(data)


if __name__ == "__main__":
    main()
