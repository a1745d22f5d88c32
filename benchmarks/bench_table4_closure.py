"""Table 4 — transitivity closure on subClassOf chains.

Paper: chains of 100–25,000 nodes; Inferray's Nuutila pre-pass scales
to 313M closed triples while OWLIM (RETE) dies at 2,500 and RDFox
(hash semi-naive) at 5,000.

Reproduction at ~10× smaller chains (pure-Python factor): Inferray vs
hashjoin (RDFox stand-in), rete (OWLIM stand-in) and the naive oracle,
with a per-run timeout; timed-out cells print '–' exactly as the paper
marks them.  The expected shape: Inferray near-linear in the *output*
size, the iterative engines blowing up combinatorially and timing out
at much shorter chains.

Run:     python benchmarks/bench_table4_closure.py [--smoke]
Pytest:  pytest benchmarks/bench_table4_closure.py --benchmark-only
"""

import argparse

import pytest

from paper.bench.harness import RunResult, format_table, run_engine
from repro.core.engine import InferrayEngine
from repro.datasets.chains import chain_closure_size, subclass_chain

#: Chain lengths (nodes); the paper uses 100..25,000.
LENGTHS = [50, 100, 250, 500, 1000, 2000]

#: Per-run engine timeout (seconds) for the standalone table.
TIMEOUT = 30.0

ENGINES = ["inferray", "hashjoin", "rete", "naive"]


def run_table(lengths=None, timeout=TIMEOUT, runs=1):
    results = []
    give_up = set()
    for length in lengths or LENGTHS:
        data = subclass_chain(length)
        for engine in ENGINES:
            if engine in give_up:
                # A shorter chain already timed out; mark without running.
                results.append(
                    RunResult(
                        engine=engine,
                        dataset=f"chain{length}",
                        ruleset="rho-df",
                        seconds=None,
                        n_input=len(data),
                    )
                )
                continue
            result = run_engine(
                engine,
                "rho-df",
                data,
                dataset_name=f"chain{length}",
                timeout_seconds=timeout,
                warmup=0,
                runs=runs,
            )
            results.append(result)
            if result.seconds is None:
                give_up.add(engine)  # longer chains will also time out
    return results


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--timeout", type=float, default=TIMEOUT,
        help=f"per-run timeout in seconds (default {TIMEOUT:.0f})",
    )
    parser.add_argument(
        "--smoke", action="store_true", help="the shortest chain only"
    )
    args = parser.parse_args(argv)
    results = run_table(
        lengths=LENGTHS[:1] if args.smoke else LENGTHS, timeout=args.timeout
    )
    by_length = {}
    for result in results:
        by_length.setdefault(result.dataset, {})[result.engine] = result
    headers = ["chain (nodes)", "closure size"] + ENGINES
    rows = []
    for dataset, cells in by_length.items():
        length = int(dataset.replace("chain", ""))
        rows.append(
            [dataset, f"{chain_closure_size(length):,}"]
            + [cells[e].cell() for e in ENGINES]
        )
    print("Table 4 — transitivity closure wall time (ms; '–' = timeout "
          f"of {args.timeout:.0f}s)")
    print(format_table(headers, rows))
    inferray_last = [
        r for r in results if r.engine == "inferray" and r.seconds
    ][-1]
    print(
        f"\nInferray throughput at the largest chain: "
        f"{inferray_last.throughput:,.0f} closed triples/s"
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points
# ----------------------------------------------------------------------
_CHAIN = subclass_chain(100)


def _materialize_inferray():
    engine = InferrayEngine("rho-df")
    engine.load_triples(_CHAIN)
    engine.materialize()
    return engine.n_triples


@pytest.mark.benchmark(group="table4-closure")
def test_inferray_chain100(benchmark):
    total = benchmark(_materialize_inferray)
    assert total == chain_closure_size(100)


@pytest.mark.benchmark(group="table4-closure")
def test_hashjoin_chain100(benchmark):
    from repro.baselines.hashjoin import HashJoinEngine

    def run():
        engine = HashJoinEngine("rho-df")
        engine.load_triples(_CHAIN)
        engine.materialize()
        return engine.n_triples

    assert benchmark(run) == chain_closure_size(100)


@pytest.mark.benchmark(group="table4-closure")
def test_rete_chain40(benchmark):
    from repro.baselines.rete import ReteEngine

    chain = subclass_chain(40)

    def run():
        engine = ReteEngine("rho-df")
        engine.load_triples(chain)
        engine.materialize()
        return engine.n_triples

    assert benchmark(run) == chain_closure_size(40)


if __name__ == "__main__":
    main()
