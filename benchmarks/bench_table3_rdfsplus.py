"""Table 3 — RDFS-Plus inference times on LUBM + real-world datasets.

Paper: LUBM 1M–100M plus Wikipedia/Yago/Wordnet under RDFS-Plus;
"Inferray consistently outperforms RDFox, by a factor 2", OWLIM slower
by at least 7×, Inferray scaling linearly with dataset size.

Reproduction: LUBM-like at 10–100 departments (≈2k–21k triples) plus
the stand-ins, under the full RDFS-Plus ruleset (multi-way joins,
property-as-variable rules, sameAs machinery).

Run:     python benchmarks/bench_table3_rdfsplus.py [--smoke]
Parallel: --workers N runs the Inferray engine through the parallel
         rule scheduler (--parallel-mode thread forces the thread
         pool; default: the engine's auto policy), so the
         RDFS-Plus closure benchmarks exercise the same scheduler the
         Table-2 harness measures.
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


def inferray_scheduler_kwargs(args):
    """Engine kwargs for the Inferray cells (baselines take none)."""
    if args is None or args.workers is None:
        return None
    return {"workers": args.workers, "parallel_mode": args.parallel_mode}


def run_table(timeout=TIMEOUT, runs=1, subset=None, scheduler_kwargs=None):
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
                    engine_kwargs=(
                        scheduler_kwargs if engine == "inferray" else None
                    ),
                )
            )
    return results


def add_scheduler_arguments(parser):
    """--workers / --parallel-mode, shared by the closure benchmarks."""
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="run the Inferray engine under the parallel rule "
        "scheduler with N workers (0 = all cores; default: "
        "$REPRO_WORKERS or sequential)",
    )
    parser.add_argument(
        "--parallel-mode",
        choices=("auto", "thread"),
        default=None,
        help="executor for --workers > 1 (default: the engine's auto "
        "policy)",
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    add_scheduler_arguments(parser)
    parser.add_argument(
        "--timeout", type=float, default=TIMEOUT,
        help=f"per-run timeout in seconds (default {TIMEOUT:.0f})",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the smallest dataset only"
    )
    args = parser.parse_args(argv)
    scheduler_kwargs = inferray_scheduler_kwargs(args)
    results = run_table(
        timeout=args.timeout,
        subset=workloads(smoke=args.smoke),
        scheduler_kwargs=scheduler_kwargs,
    )
    print(
        "Table 3 — RDFS-Plus, execution time in ms "
        f"('–' = timeout of {args.timeout:.0f}s; * = synthetic stand-in)"
    )
    if scheduler_kwargs:
        print(
            f"(inferray cells: workers={args.workers}, "
            f"parallel-mode={args.parallel_mode or 'auto'})"
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
