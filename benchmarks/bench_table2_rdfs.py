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
Parallel: --workers N (default 4) additionally measures the Inferray
         engine sequentially vs under the dependency-aware parallel
         rule scheduler with N workers (rdfs-default fragment) and
         reports per-dataset throughput; --workers 1 skips it.
         --parallel-mode thread forces the thread pool (default: the
         scheduler's cost model), and --modes (implied by --json) adds
         an auto vs thread comparison over the same workloads.
Repeats: every cell is warmed up --warmup times (default 1) and timed
         --runs times (default 3); cells report the median, and the
         max-min spread rides along in the JSON so reports show noise.
Scale:   --scale [smoke|full|xl] measures the executors on scale
         workloads (BSBM-10k up to BSBM-1M, LUBM-500/5000), records
         the cost-model decision per cell and derives the measured
         sequential->thread crossover point.  The crossover default in
         repro.core.scheduler is anchored to this section.
JSON:    --json [PATH] additionally writes a machine-readable record
         set (default PATH: BENCH_table2.json) — one entry per cell
         with dataset, engine, backend, ruleset, seconds, n_inferred,
         plus a top-level "parallel" section with the
         sequential-vs-parallel cells and the mean speedup, a
         "parallel_modes" section with the per-mode speedups, and —
         under --scale — a "scale" section with the per-executor
         scale cells and crossovers.
Smoke:   --smoke restricts to one tiny dataset with a single run per
         cell (the CI smoke job uses --smoke --json and validates the
         parallel section; the scale smoke job adds
         --scale smoke --runs 3).
Pytest:  pytest benchmarks/bench_table2_rdfs.py --benchmark-only
"""

import argparse
import json
import statistics

import pytest

from repro.bench.harness import run_engine
from repro.bench.reporting import results_matrix, speedup_summary
from repro.core.engine import InferrayEngine
from repro.datasets.bsbm import bsbm_like
from repro.datasets.lubm import lubm_like
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


def run_parallel_comparison(
    workers, *, backend="auto", parallel_mode=None,
    fragment="rdfs-default", timeout=TIMEOUT, warmup=1, runs=3,
    subset=None, sequential_out=None
):
    """Inferray under workers=1 vs workers=N on each workload.

    Both legs run on the *same* kernel ``backend`` (the one the rest of
    the invocation measures); ``parallel_mode`` selects the executor
    substrate for the parallel leg (None = the scheduler's cost model
    picks per flush, and the cell records its decision).  Returns the
    JSON-ready section: per-dataset cells with sequential / parallel
    seconds + throughput, and the mean ``speedup`` across the cells
    that completed (the field the CI smoke job asserts on).
    ``sequential_out`` (an empty dict, if given) collects the measured
    sequential :class:`RunResult` per dataset so the modes comparison
    can reuse the baselines instead of re-running them.
    """
    from repro.kernels import resolve_backend

    backend_name = resolve_backend(backend).name
    mode_label = parallel_mode or "auto"
    cells = []
    speedups = []
    for dataset_name, data in subset or workloads():
        seq = run_engine(
            "inferray", fragment, data, dataset_name=dataset_name,
            timeout_seconds=timeout, warmup=warmup, runs=runs,
            engine_kwargs={"workers": 1, "backend": backend},
            label="sequential",
        )
        if sequential_out is not None:
            sequential_out[dataset_name] = seq
        par = run_engine(
            "inferray", fragment, data, dataset_name=dataset_name,
            timeout_seconds=timeout, warmup=warmup, runs=runs,
            engine_kwargs={
                "workers": workers,
                "backend": backend,
                "parallel_mode": parallel_mode,
            },
            label=f"workers-{workers}",
        )
        speedup = None
        if seq.seconds and par.seconds:
            speedup = seq.seconds / par.seconds
            speedups.append(speedup)
        cells.append(
            {
                "dataset": dataset_name,
                "ruleset": fragment,
                "backend": backend_name,
                "workers": workers,
                "parallel_mode": mode_label,
                "parallel_mode_picked": par.parallel_mode,
                "parallel_decision": par.parallel_decision,
                "sequential_seconds": seq.seconds,
                "parallel_seconds": par.seconds,
                "sequential_spread_seconds": seq.spread_seconds,
                "parallel_spread_seconds": par.spread_seconds,
                "sequential_throughput": seq.throughput,
                "parallel_throughput": par.throughput,
                "n_inferred": par.n_inferred,
                "speedup": speedup,
            }
        )
    return {
        "workers": workers,
        "ruleset": fragment,
        "backend": backend_name,
        "parallel_mode": mode_label,
        "speedup": statistics.fmean(speedups) if speedups else None,
        "cells": cells,
    }


#: The executor configurations the mode-comparison section measures:
#: (label, engine kwargs layered on top of workers/backend).
PARALLEL_MODE_LEGS = [
    # The cost model's own pick — the cell records which substrate it
    # chose, so the report shows whether auto beat the forced legs.
    ("auto", {"parallel_mode": "auto"}),
    ("thread", {"parallel_mode": "thread"}),
]


def run_parallel_modes_comparison(
    workers, *, backend="auto", fragment="rdfs-default", timeout=TIMEOUT,
    warmup=1, runs=3, subset=None, sequential_cells=None
):
    """Auto vs thread, vs sequential.

    One sequential baseline per dataset, then every
    :data:`PARALLEL_MODE_LEGS` configuration at ``workers=N`` on the
    same kernel backend.  ``sequential_cells`` (dataset → sequential
    :class:`RunResult`, as measured by :func:`run_parallel_comparison`
    on the same subset/backend) reuses already-measured baselines
    instead of re-running them.  Returns the ``parallel_modes`` JSON
    section: per-dataset cells (seconds + speedup per mode, plus the
    substrate the ``auto`` leg's cost model picked) and per-mode mean
    speedups — the thread-pool payoff record for the repo's bench
    trajectory.
    """
    from repro.kernels import resolve_backend

    backend_name = resolve_backend(backend).name
    sequential_cells = sequential_cells or {}
    cells = []
    speedups = {label: [] for label, _ in PARALLEL_MODE_LEGS}
    for dataset_name, data in subset or workloads():
        seq = sequential_cells.get(dataset_name)
        if seq is None:
            seq = run_engine(
                "inferray", fragment, data, dataset_name=dataset_name,
                timeout_seconds=timeout, warmup=warmup, runs=runs,
                engine_kwargs={"workers": 1, "backend": backend},
                label="sequential",
            )
        cell = {
            "dataset": dataset_name,
            "ruleset": fragment,
            "backend": backend_name,
            "workers": workers,
            "sequential_seconds": seq.seconds,
            "n_inferred": seq.n_inferred,
            "modes": {},
        }
        for label, extra in PARALLEL_MODE_LEGS:
            par = run_engine(
                "inferray", fragment, data, dataset_name=dataset_name,
                timeout_seconds=timeout, warmup=warmup, runs=runs,
                engine_kwargs={
                    "workers": workers, "backend": backend, **extra
                },
                label=label,
            )
            speedup = None
            if seq.seconds and par.seconds:
                speedup = seq.seconds / par.seconds
                speedups[label].append(speedup)
            cell["modes"][label] = {
                "seconds": par.seconds,
                "spread_seconds": par.spread_seconds,
                "throughput": par.throughput,
                "speedup": speedup,
                "picked": par.parallel_mode,
            }
        cells.append(cell)
    return {
        "workers": workers,
        "ruleset": fragment,
        "backend": backend_name,
        "modes": [label for label, _ in PARALLEL_MODE_LEGS],
        "speedups": {
            label: (statistics.fmean(values) if values else None)
            for label, values in speedups.items()
        },
        "cells": cells,
    }


def measure_parallel_sections(
    args, *, backend="auto", warmup=1, runs=3, subset=None
):
    """The seq-vs-parallel and executor-mode sections, if enabled.

    Shared by the engine-table and backend-comparison branches of
    ``main``: runs :func:`run_parallel_comparison` (reporting it), then
    — when ``--modes`` or ``--json`` asks for it —
    :func:`run_parallel_modes_comparison` reusing the sequential
    baselines just measured.  Returns ``(parallel, parallel_modes)``
    (either may be ``None``).
    """
    if args.workers <= 1:
        return None, None
    sequential_cells = {}
    parallel = run_parallel_comparison(
        args.workers, backend=backend, parallel_mode=args.parallel_mode,
        timeout=args.timeout, warmup=warmup, runs=runs, subset=subset,
        sequential_out=sequential_cells,
    )
    _report_parallel_comparison(parallel)
    parallel_modes = None
    if args.modes or args.json:
        parallel_modes = run_parallel_modes_comparison(
            args.workers, backend=backend, timeout=args.timeout,
            warmup=warmup, runs=runs, subset=subset,
            sequential_cells=sequential_cells,
        )
        _report_parallel_modes(parallel_modes)
    return parallel, parallel_modes


# ----------------------------------------------------------------------
# Scale section: executor crossovers
# ----------------------------------------------------------------------

#: Scale workloads per tier, smallest first (crossover detection walks
#: them in order).  The smoke tier is sized for CI; xl adds the
#: paper-scale BSBM-1M row (minutes of wall time).
SCALE_TIERS = {
    "smoke": ("BSBM-10k",),
    "full": ("BSBM-10k", "LUBM-500", "BSBM-100k", "LUBM-5000"),
    "xl": ("BSBM-10k", "LUBM-500", "BSBM-100k", "LUBM-5000", "BSBM-1M"),
}

SCALE_FACTORIES = {
    "BSBM-10k": lambda: bsbm_like(10_000),
    "LUBM-500": lambda: lubm_like(500),
    "BSBM-100k": lambda: bsbm_like(100_000),
    "LUBM-5000": lambda: lubm_like(5_000),
    "BSBM-1M": lambda: bsbm_like(1_000_000),
}

#: The substrates the scale section measures against sequential.
SCALE_LEGS = [
    ("auto", {"parallel_mode": "auto"}),
    ("thread", {"parallel_mode": "thread"}),
]


def _project_multicore_pick(decision, backend_name, cores=4):
    """What the cost model would pick at ``cores`` cores.

    Re-evaluates the recorded estimate against the recorded crossover
    (the core-count gate is the only input that differs), so a one-core
    bench box can still report the executor the same workload would
    get on a multicore machine.
    """
    if decision is None:
        return None
    estimated = decision.get("estimated_pairs")
    if estimated is None or cores < 2:
        return None
    if backend_name == "python":
        return "sequential"  # GIL-bound kernels never take threads
    if estimated < decision["thread_crossover"]:
        return "sequential"
    return "thread"


def run_scale_section(
    workers, *, backend="auto", fragment="rdfs-default", tier="full",
    timeout=TIMEOUT, warmup=1, runs=3
):
    """Executors on scale workloads.

    For every tier workload: a sequential baseline, then each
    :data:`SCALE_LEGS` executor at ``workers=N`` — each cell records
    median/spread/speedup and (for ``auto``) the cost model's full
    decision.  From the cells the section derives the measured
    crossover per executor (the smallest workload where it beat
    sequential; ``null`` until one does, which on a one-core box is
    expected — the report also carries the pick the same estimate
    would get at four cores).
    """
    from repro.core.scheduler import resolve_parallel_cores
    from repro.kernels import resolve_backend

    backend_name = resolve_backend(backend).name
    cores = resolve_parallel_cores()
    datasets = []
    crossovers = {label: None for label, _ in SCALE_LEGS}
    for dataset_name in SCALE_TIERS[tier]:
        data = SCALE_FACTORIES[dataset_name]()
        seq = run_engine(
            "inferray", fragment, data, dataset_name=dataset_name,
            timeout_seconds=timeout, warmup=warmup, runs=runs,
            engine_kwargs={"workers": 1, "backend": backend},
            label="sequential",
        )
        legs = {
            "sequential": {
                "seconds": seq.seconds,
                "spread_seconds": seq.spread_seconds,
                "throughput": seq.throughput,
            }
        }
        for label, extra in SCALE_LEGS:
            par = run_engine(
                "inferray", fragment, data, dataset_name=dataset_name,
                timeout_seconds=timeout, warmup=warmup, runs=runs,
                engine_kwargs={
                    "workers": workers, "backend": backend, **extra
                },
                label=label,
            )
            speedup = None
            if seq.seconds and par.seconds:
                speedup = seq.seconds / par.seconds
            legs[label] = {
                "seconds": par.seconds,
                "spread_seconds": par.spread_seconds,
                "throughput": par.throughput,
                "speedup": speedup,
                "picked": par.parallel_mode,
                "decision": par.parallel_decision,
            }
            if speedup is not None and speedup > 1.0:
                if crossovers.get(label) is None:
                    crossovers[label] = {
                        "dataset": dataset_name,
                        "n_input": seq.n_input,
                    }
        auto_decision = legs["auto"].get("decision")
        datasets.append(
            {
                "dataset": dataset_name,
                "n_input": seq.n_input,
                "n_inferred": seq.n_inferred,
                "legs": legs,
                "projected_pick_at_4_cores": _project_multicore_pick(
                    auto_decision, backend_name
                ),
            }
        )
    return {
        "tier": tier,
        "workers": workers,
        "cores": cores,
        "ruleset": fragment,
        "backend": backend_name,
        "warmup": warmup,
        "runs": runs,
        "datasets": datasets,
        "measured_crossovers": crossovers,
    }


def _report_scale(section):
    print(
        f"\nScale section ({section['tier']} tier, {section['ruleset']}, "
        f"{section['backend']} kernels, {section['workers']} workers on "
        f"{section['cores']} core(s); median of {section['runs']} run(s))"
    )
    for row in section["datasets"]:
        legs = row["legs"]
        seq = legs["sequential"]["seconds"]
        parts = [
            f"sequential: {seq:.3f}s" if seq is not None
            else "sequential: timeout"
        ]
        for label, _ in SCALE_LEGS:
            leg = legs[label]
            if leg["speedup"] is None:
                parts.append(f"{label}: timeout")
                continue
            text = f"{label}: {leg['speedup']:.2f}x"
            if label == "auto" and leg.get("picked"):
                text += f" (picked {leg['picked']})"
            parts.append(text)
        print(f"  {row['dataset']} ({row['n_input']:,} triples): "
              + ", ".join(parts))
        projected = row.get("projected_pick_at_4_cores")
        if projected and projected != legs["auto"].get("picked"):
            print(f"    at 4 cores the cost model would pick: {projected}")
    for label, hit in section["measured_crossovers"].items():
        where = (
            f"{hit['dataset']} ({hit['n_input']:,} triples)"
            if hit else "not reached"
        )
        print(f"  crossover[{label}]: {where}")


def _report_parallel_modes(section):
    workers = section["workers"]
    print(
        f"\nParallel executor modes at {workers} workers "
        f"({section['ruleset']}, {section['backend']} kernels; "
        "speedup vs sequential)"
    )
    for cell in section["cells"]:
        parts = []
        for label in section["modes"]:
            mode = cell["modes"][label]
            if mode["speedup"] is None:
                parts.append(f"{label}: timeout")
            else:
                parts.append(f"{label}: {mode['speedup']:.2f}x")
        print(f"  {cell['dataset']}: " + ", ".join(parts))
    means = ", ".join(
        f"{label}: {value:.2f}x" if value is not None else f"{label}: –"
        for label, value in section["speedups"].items()
    )
    print(f"  mean speedups — {means}")


def _report_parallel_comparison(section):
    workers = section["workers"]
    print(
        f"\nParallel rule scheduler — sequential vs {workers} "
        f"{section.get('parallel_mode') or 'auto'} workers "
        f"({section['ruleset']}, inferred triples/s)"
    )
    for cell in section["cells"]:
        seq_tps = cell["sequential_throughput"]
        par_tps = cell["parallel_throughput"]
        if seq_tps is None or par_tps is None:
            print(f"  {cell['dataset']}: timeout")
            continue
        print(
            f"  {cell['dataset']}: {seq_tps:,.0f} -> {par_tps:,.0f} "
            f"triples/s ({cell['speedup']:.2f}x)"
        )
    if section["speedup"] is not None:
        print(f"  mean speedup: {section['speedup']:.2f}x")


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


def write_json_report(
    path, results, *, mode, timeout, parallel=None, parallel_modes=None,
    scale=None,
):
    """Write the cell records as machine-readable JSON (CI artifact).

    Each record carries dataset / engine / backend / ruleset /
    seconds (null on timeout) / n_input / n_inferred / n_total.  In
    backend-comparison mode the RunResult's engine column *is* the
    kernel backend label; in engine mode the backend is whatever
    'auto' resolves to in this environment.  ``parallel`` (from
    :func:`run_parallel_comparison`) lands as the top-level
    ``"parallel"`` section — the CI smoke job fails when its
    ``speedup`` field is absent — and ``parallel_modes`` (from
    :func:`run_parallel_modes_comparison`) as the top-level
    ``"parallel_modes"`` section, and ``scale`` (from
    :func:`run_scale_section`) as the top-level ``"scale"`` section —
    all schema-checked against the committed baseline
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
    if parallel is not None:
        payload["parallel"] = parallel
    if parallel_modes is not None:
        payload["parallel_modes"] = parallel_modes
    if scale is not None:
        payload["scale"] = scale
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
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="measure the parallel rule scheduler with N workers "
        "against sequential execution (1 skips the comparison; "
        "default 4)",
    )
    parser.add_argument(
        "--parallel-mode",
        choices=("auto", "thread"),
        default=None,
        help="executor for the seq-vs-parallel comparison "
        "(default: the scheduler's cost model picks per flush)",
    )
    parser.add_argument(
        "--modes",
        action="store_true",
        default=None,
        help="also measure auto vs thread at --workers (the "
        "parallel_modes report section; implied by --json)",
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
    parser.add_argument(
        "--scale",
        nargs="?",
        const="full",
        default=None,
        choices=tuple(SCALE_TIERS),
        metavar="TIER",
        help="also measure the executors on scale workloads "
        "(smoke: BSBM-10k; full: up to LUBM-5000; xl: adds BSBM-1M) "
        "and derive the measured crossovers (the 'scale' report "
        "section)",
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
        from repro.kernels import KernelUnavailableError, numpy_available

        backend = args.backend
        if backend == "auto":
            backend = "numpy" if numpy_available() else "python"
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
        # Seq-vs-parallel on the backend this invocation measured
        # (availability was proven by the table run above).
        parallel, parallel_modes = measure_parallel_sections(
            args, backend=backend, warmup=warmup, runs=runs, subset=subset
        )
        scale = None
        if args.scale:
            scale = run_scale_section(
                args.workers, backend=backend, tier=args.scale,
                timeout=args.timeout, warmup=warmup, runs=runs,
            )
            _report_scale(scale)
        if args.json:
            write_json_report(
                args.json, results, mode="backends", timeout=args.timeout,
                parallel=parallel, parallel_modes=parallel_modes,
                scale=scale,
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
    parallel, parallel_modes = measure_parallel_sections(
        args, warmup=warmup, runs=runs, subset=subset
    )
    scale = None
    if args.scale:
        scale = run_scale_section(
            args.workers, tier=args.scale, timeout=args.timeout,
            warmup=warmup, runs=runs,
        )
        _report_scale(scale)
    if args.json:
        write_json_report(
            args.json, results, mode="engines", timeout=args.timeout,
            parallel=parallel, parallel_modes=parallel_modes, scale=scale,
        )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (single representative cells)
# ----------------------------------------------------------------------
_BSBM = bsbm_like(300)


def _run(engine_name, ruleset):
    from repro.bench.harness import ENGINE_FACTORIES

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
