"""Table 2 — RDFS-flavour inference times (ρdf / RDFS-default / RDFS-Full).

Paper: BSBM 1M–50M plus Wikipedia/Yago/Wordnet, Inferray vs OWLIM vs
RDFox vs WebPIE.  Reproduction: BSBM-like at 1k–10k products plus the
real-world stand-ins; engines inferray / hashjoin (RDFox stand-in) /
rete (OWLIM stand-in); WebPIE (Hadoop) is N/A, as it is for most rows
in the paper.

Expected shape (paper §6.2): the hash-join engine is competitive or
better on RDFS-Full and small datasets; Inferray improves with size
and on the leaner fragments; the RETE engine trails and times out
first as datasets grow.

Run:     python benchmarks/bench_table2_rdfs.py
Backends: python benchmarks/bench_table2_rdfs.py --backend numpy
         runs the Inferray engine under the pure-Python kernels AND the
         requested kernel backend side by side and reports per-cell
         speedups (see repro.kernels).
Repeats: every cell is warmed up --warmup times (default 1) and timed
         --runs times (default 3); cells report the median, and the
         max-min spread rides along in the JSON so reports show noise.
JSON:    --json [PATH] additionally writes a machine-readable record
         set (default PATH: BENCH_table2.json) — one entry per cell
         with dataset, engine, backend, ruleset, seconds, n_inferred.
Smoke:   --smoke restricts to one tiny dataset with a single run per
         cell (the CI smoke job uses --smoke --json and validates the
         report's schema).
Pytest:  pytest benchmarks/bench_table2_rdfs.py --benchmark-only
"""

import argparse
import json

import pytest

from paper.bench.harness import run_engine
from paper.bench.reporting import results_matrix, speedup_summary
from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.datasets.realworld import wikipedia_like, wordnet_like, yago_like

FRAGMENTS = ["rho-df", "rdfs-default", "rdfs-full"]
ENGINES = ["inferray", "hashjoin", "rete"]
TIMEOUT = 60.0


def workloads():
    """(name, triples) pairs, mirroring the paper's dataset rows."""
    return [
        ("BSBM-1k", bsbm_like(1_000)),
        ("BSBM-2.5k", bsbm_like(2_500)),
        ("BSBM-5k", bsbm_like(5_000)),
        ("BSBM-10k", bsbm_like(10_000)),
        ("Wikipedia*", wikipedia_like(10)),
        ("Yago*", yago_like(4)),
        ("Wordnet*", wordnet_like(8)),
    ]


def run_table(timeout=TIMEOUT, warmup=1, runs=3, subset=None):
    results = []
    for dataset_name, data in subset or workloads():
        for fragment in FRAGMENTS:
            for engine in ENGINES:
                results.append(
                    run_engine(
                        engine,
                        fragment,
                        data,
                        dataset_name=dataset_name,
                        timeout_seconds=timeout,
                        warmup=warmup,
                        runs=runs,
                    )
                )
    return results


def run_backend_table(backend, timeout=TIMEOUT, warmup=1, runs=3, subset=None):
    """Inferray under the pure-Python kernels vs under ``backend``."""
    backends = ("python",) if backend == "python" else ("python", backend)
    results = []
    for dataset_name, data in subset or workloads():
        for fragment in FRAGMENTS:
            for kernel_backend in backends:
                results.append(
                    run_engine(
                        "inferray",
                        fragment,
                        data,
                        dataset_name=dataset_name,
                        timeout_seconds=timeout,
                        warmup=warmup,
                        runs=runs,
                        engine_kwargs={"backend": kernel_backend},
                        label=kernel_backend,
                    )
                )
    return results


def _report_backend_comparison(backend, results, timeout=TIMEOUT):
    print(
        f"Table 2 — Inferray kernel backends (python vs {backend}), "
        f"execution time in ms ('–' = timeout of {timeout:.0f}s)"
    )
    print(results_matrix(results, columns=["python", backend]))
    print()
    by_cell = {}
    for result in results:
        by_cell.setdefault((result.dataset, result.ruleset), {})[
            result.engine
        ] = result
    largest = None
    for (dataset, ruleset), cells in by_cell.items():
        base = cells.get("python")
        fast = cells.get(backend)
        if base is None or fast is None:
            continue
        if fast.seconds is None or fast.seconds <= 0:
            if base.seconds is not None:
                print(
                    f"  {dataset}/{ruleset}: {backend} timed out, "
                    f"python finished in {base.cell()} ms"
                )
            continue
        n_input = fast.n_input
        if base.seconds is None:
            # python hit the timeout: report the provable lower bound
            # instead of silently dropping the cell.
            factor = timeout / fast.seconds
            print(
                f"  {dataset}/{ruleset}: {backend} is >= {factor:.1f}x "
                f"faster than python (python timed out at "
                f"{timeout * 1000:,.0f} ms -> {fast.cell()} ms, "
                f"{fast.n_inferred} inferred)"
            )
        else:
            factor = base.seconds / fast.seconds
            print(
                f"  {dataset}/{ruleset}: {backend} is {factor:.1f}x "
                f"{'faster' if factor >= 1 else 'slower'} than python "
                f"({base.cell()} ms -> {fast.cell()} ms, "
                f"{fast.n_inferred} inferred)"
            )
        if (
            largest is None
            or n_input > largest[0]
            or (n_input == largest[0] and factor > largest[3])
        ):
            largest = (n_input, dataset, ruleset, factor)
    if largest:
        _, dataset, ruleset, factor = largest
        print(
            f"\n  largest dataset ({dataset}, {ruleset}): "
            f"{backend} speedup {factor:.1f}x over the pure-Python backend"
        )


def write_json_report(path, results, *, mode, timeout):
    """Write the cell records as machine-readable JSON (CI artifact).

    Each record carries dataset / engine / backend / ruleset /
    seconds (null on timeout) / n_input / n_inferred / n_total.  In
    backend-comparison mode the RunResult's engine column *is* the
    kernel backend label; in engine mode the backend is whatever
    'auto' resolves to in this environment.  The CI smoke job
    schema-checks the report against the committed baseline
    ``BENCH_table2.json``.
    """
    from repro.kernels import resolve_backend

    auto_backend = resolve_backend("auto").name
    records = []
    for result in results:
        is_backend_label = mode == "backends"
        records.append(
            {
                "dataset": result.dataset,
                "ruleset": result.ruleset,
                "engine": "inferray" if is_backend_label else result.engine,
                "backend": result.engine if is_backend_label else (
                    auto_backend if result.engine == "inferray" else None
                ),
                "seconds": result.seconds,
                "spread_seconds": result.spread_seconds,
                "timeout": result.seconds is None,
                "n_input": result.n_input,
                "n_inferred": result.n_inferred,
                "n_total": result.n_total,
                "runs": result.runs,
            }
        )
    payload = {
        "table": "table2-rdfs",
        "mode": mode,
        "timeout_seconds": timeout,
        "results": records,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(records)} cell records to {path}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--backend",
        choices=("python", "numpy", "auto"),
        default=None,
        help="compare Inferray kernel backends (python vs the given "
        "one) instead of the engine-vs-engine table",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help=f"per-run timeout in seconds (default {TIMEOUT:.0f}; "
        "30 under --smoke unless given)",
    )
    parser.add_argument(
        "--json",
        nargs="?",
        const="BENCH_table2.json",
        default=None,
        metavar="PATH",
        help="also write machine-readable results "
        "(default PATH: BENCH_table2.json)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="tiny single-run configuration for CI smoke checks",
    )
    parser.add_argument(
        "--warmup",
        type=int,
        default=None,
        metavar="K",
        help="untimed warm-up runs per cell (default 1; 0 under "
        "--smoke unless given)",
    )
    parser.add_argument(
        "--runs",
        type=int,
        default=None,
        metavar="K",
        help="timed runs per cell, reported as the median (default 3; "
        "1 under --smoke unless given)",
    )
    args = parser.parse_args(argv)

    subset = None
    warmup = args.warmup if args.warmup is not None else (
        0 if args.smoke else 1
    )
    runs = args.runs if args.runs is not None else (1 if args.smoke else 3)
    explicit_timeout = args.timeout is not None
    if not explicit_timeout:
        args.timeout = TIMEOUT
    if args.smoke:
        subset = [("BSBM-300", bsbm_like(300))]
        if not explicit_timeout:
            args.timeout = min(args.timeout, 30.0)

    if args.backend:
        from repro.kernels import KernelUnavailableError

        backend = args.backend
        if backend == "auto":
            backend = "numpy"
        try:
            results = run_backend_table(
                backend, timeout=args.timeout, warmup=warmup, runs=runs,
                subset=subset,
            )
        except KernelUnavailableError as error:
            import sys

            print(f"bench_table2_rdfs: {error}", file=sys.stderr)
            raise SystemExit(2)
        if backend == "python":
            print(
                "Table 2 — Inferray on the pure-Python kernel backend, "
                f"execution time in ms ('–' = timeout of {args.timeout:.0f}s)"
            )
            print(results_matrix(results, columns=["python"]))
        else:
            _report_backend_comparison(backend, results, timeout=args.timeout)
        if args.json:
            write_json_report(
                args.json, results, mode="backends", timeout=args.timeout,
            )
        return

    results = run_table(
        timeout=args.timeout, warmup=warmup, runs=runs, subset=subset
    )
    print(
        "Table 2 — RDFS flavours, execution time in ms "
        f"('–' = timeout of {args.timeout:.0f}s; * = synthetic stand-in)"
    )
    print(results_matrix(results, columns=ENGINES))
    print()
    for line in speedup_summary(results):
        print(" ", line)
    if args.json:
        write_json_report(
            args.json, results, mode="engines", timeout=args.timeout,
        )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (single representative cells)
# ----------------------------------------------------------------------
_BSBM = bsbm_like(300)


def _run(engine_name, ruleset):
    from paper.bench.harness import ENGINE_FACTORIES

    engine = ENGINE_FACTORIES[engine_name](ruleset)
    engine.load_triples(_BSBM)
    engine.materialize()
    return engine.n_triples


@pytest.mark.benchmark(group="table2-rdfs")
def test_inferray_bsbm_rdfs_default(benchmark):
    assert benchmark(lambda: _run("inferray", "rdfs-default")) > len(_BSBM)


@pytest.mark.benchmark(group="table2-rdfs")
def test_hashjoin_bsbm_rdfs_default(benchmark):
    assert benchmark(lambda: _run("hashjoin", "rdfs-default")) > len(_BSBM)


@pytest.mark.benchmark(group="table2-rdfs")
def test_rete_bsbm_rdfs_default(benchmark):
    assert benchmark(lambda: _run("rete", "rdfs-default")) > len(_BSBM)


@pytest.mark.benchmark(group="table2-rdfs-full")
def test_inferray_bsbm_rdfs_full(benchmark):
    assert benchmark(lambda: _run("inferray", "rdfs-full")) > len(_BSBM)


@pytest.mark.benchmark(group="table2-rdfs-full")
def test_hashjoin_bsbm_rdfs_full(benchmark):
    assert benchmark(lambda: _run("hashjoin", "rdfs-full")) > len(_BSBM)


if __name__ == "__main__":
    main()
