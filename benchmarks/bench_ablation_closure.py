"""Ablation — Nuutila pre-pass vs iterative θ inside the same engine.

The paper's first contribution claim: "it is worth paying the
performance penalty of translating data into Nuutila's algorithm data
layout for a massive speedup".  This ablation isolates exactly that
choice: the identical InferrayEngine runs once with the θ pre-pass
(ThetaRule) and once with SCM-SCO's description fired as an iterative
sort-merge self-join (the shaped JoinRule) — everything else (store,
sorts, merges) unchanged.

Run:     python benchmarks/bench_ablation_closure.py
Pytest:  pytest benchmarks/bench_ablation_closure.py --benchmark-only
"""

import time

import pytest

from repro.bench.harness import format_table
from repro.core.engine import InferrayEngine, MaterializationTimeout
from repro.datasets.chains import chain_closure_size, subclass_chain
from repro.rules.classes import shaped_rule
from repro.rules.table5 import BY_NAME, make_rules

LENGTHS = [100, 250, 500, 1000]
TIMEOUT = 30.0


def nuutila_engine():
    return InferrayEngine(make_rules(["SCM-SCO"]))


def iterative_engine():
    return InferrayEngine([
        shaped_rule(
            "SCM-SCO-ITER", BY_NAME["SCM-SCO"].description, "theta-iterative"
        )
    ])


def run_ablation(lengths=None, timeout=TIMEOUT):
    rows = []
    for length in lengths or LENGTHS:
        data = subclass_chain(length)
        cells = {}
        for variant, factory in (
            ("nuutila", nuutila_engine),
            ("iterative", iterative_engine),
        ):
            engine = factory()
            engine.load_triples(data)
            started = time.perf_counter()
            try:
                stats = engine.materialize(timeout_seconds=timeout)
            except MaterializationTimeout:
                cells[variant] = (None, None)
                continue
            elapsed = time.perf_counter() - started
            assert engine.n_triples == chain_closure_size(length)
            cells[variant] = (elapsed, stats.iterations)
        rows.append((length, cells))
    return rows


def main():
    rows = run_ablation()
    headers = [
        "chain", "closure", "nuutila (ms)", "iters",
        "iterative (ms)", "iters",
    ]
    table = []
    for length, cells in rows:
        def fmt(cell):
            seconds, iterations = cell
            if seconds is None:
                return "–", "–"
            return f"{seconds * 1000:,.0f}", str(iterations)

        n_ms, n_it = fmt(cells["nuutila"])
        i_ms, i_it = fmt(cells["iterative"])
        table.append(
            [str(length), f"{chain_closure_size(length):,}",
             n_ms, n_it, i_ms, i_it]
        )
    print("Ablation — θ pre-pass (Nuutila) vs iterative self-join θ")
    print(format_table(headers, table))
    print(
        "\nExpected shape: the iterative variant multiplies sort/merge"
        "\nwork across ~log2(n) iterations and re-derives quadratically"
        "\nmany duplicates; the pre-pass closes in one pass."
    )


@pytest.mark.benchmark(group="ablation-closure")
def test_nuutila_prepass_chain200(benchmark):
    data = subclass_chain(200)

    def run():
        engine = nuutila_engine()
        engine.load_triples(data)
        engine.materialize()
        return engine.n_triples

    assert benchmark(run) == chain_closure_size(200)


@pytest.mark.benchmark(group="ablation-closure")
def test_iterative_theta_chain200(benchmark):
    data = subclass_chain(200)

    def run():
        engine = iterative_engine()
        engine.load_triples(data)
        engine.materialize()
        return engine.n_triples

    assert benchmark(run) == chain_closure_size(200)


if __name__ == "__main__":
    main()
