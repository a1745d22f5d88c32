"""Table 3 — RDFS-Plus inference times on LUBM + real-world datasets.

Paper: LUBM 1M–100M plus Wikipedia/Yago/Wordnet under RDFS-Plus;
"Inferray consistently outperforms RDFox, by a factor 2", OWLIM slower
by at least 7×, Inferray scaling linearly with dataset size.

Reproduction: LUBM-like at 10–100 departments (≈2k–21k triples) plus
the stand-ins, under the full RDFS-Plus ruleset (multi-way joins,
property-as-variable rules, sameAs machinery).

Run:     python benchmarks/bench_table3_rdfsplus.py [--smoke]
Pytest:  pytest benchmarks/bench_table3_rdfsplus.py --benchmark-only
"""

import argparse

import pytest

from paper.bench.harness import run_engine
from paper.bench.reporting import results_matrix, speedup_summary
from repro.datasets.lubm import lubm_like
from repro.datasets.realworld import wikipedia_like, wordnet_like, yago_like

ENGINES = ["inferray", "hashjoin", "rete"]
TIMEOUT = 90.0


def workloads(smoke=False):
    if smoke:
        return [("LUBM-10", lubm_like(10))]
    return [
        ("LUBM-10", lubm_like(10)),
        ("LUBM-25", lubm_like(25)),
        ("LUBM-50", lubm_like(50)),
        ("LUBM-75", lubm_like(75)),
        ("LUBM-100", lubm_like(100)),
        ("Wikipedia*", wikipedia_like(8)),
        ("Yago*", yago_like(3)),
        ("Wordnet*", wordnet_like(6)),
    ]


def run_table(timeout=TIMEOUT, runs=1, subset=None):
    results = []
    for dataset_name, data in subset or workloads():
        for engine in ENGINES:
            results.append(
                run_engine(
                    engine,
                    "rdfs-plus",
                    data,
                    dataset_name=dataset_name,
                    timeout_seconds=timeout,
                    warmup=0,
                    runs=runs,
                )
            )
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timeout", type=float, default=TIMEOUT,
        help=f"per-run timeout in seconds (default {TIMEOUT:.0f})",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the smallest dataset only"
    )
    args = parser.parse_args(argv)
    results = run_table(
        timeout=args.timeout, subset=workloads(smoke=args.smoke)
    )
    print(
        "Table 3 — RDFS-Plus, execution time in ms "
        f"('–' = timeout of {args.timeout:.0f}s; * = synthetic stand-in)"
    )
    print(results_matrix(results, columns=ENGINES))
    print()
    for line in speedup_summary(results):
        print(" ", line)


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
_LUBM = lubm_like(5)


def _run(engine_name):
    from paper.bench.harness import ENGINE_FACTORIES

    engine = ENGINE_FACTORIES[engine_name]("rdfs-plus")
    engine.load_triples(_LUBM)
    engine.materialize()
    return engine.n_triples


@pytest.mark.benchmark(group="table3-rdfsplus")
def test_inferray_lubm(benchmark):
    assert benchmark(lambda: _run("inferray")) > len(_LUBM)


@pytest.mark.benchmark(group="table3-rdfsplus")
def test_hashjoin_lubm(benchmark):
    assert benchmark(lambda: _run("hashjoin")) > len(_LUBM)


@pytest.mark.benchmark(group="table3-rdfsplus")
def test_rete_lubm(benchmark):
    assert benchmark(lambda: _run("rete")) > len(_LUBM)


if __name__ == "__main__":
    main()
