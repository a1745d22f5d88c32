#!/usr/bin/env python3
"""Transitive-closure scaling: the paper's §6.1 experiment, hands-on.

Materializes subClassOf chains of growing length with (a) Inferray's
Nuutila pre-pass and (b) the iterative self-join θ-rule, printing the
quadratic output growth and the widening speed gap — the paper's first
contribution claim in one screenful.

Run:  python examples/transitive_scaling.py
"""

import time

from repro import InferrayEngine, MaterializationTimeout
from repro.datasets import chain_closure_size, subclass_chain
from repro.rules import BY_NAME, make_rules, shaped_rule

LENGTHS = [100, 250, 500, 1000]
ITERATIVE_TIMEOUT = 20.0


def timed_materialize(engine, timeout=None):
    started = time.perf_counter()
    engine.materialize(timeout_seconds=timeout)
    return time.perf_counter() - started


def main() -> None:
    print(f"{'chain':>6} {'closure':>10} {'nuutila':>10} "
          f"{'iterative':>10} {'speedup':>8}")
    for length in LENGTHS:
        data = subclass_chain(length)

        nuutila = InferrayEngine(make_rules(["SCM-SCO"]))
        nuutila.load_triples(data)
        nuutila_seconds = timed_materialize(nuutila)
        assert nuutila.n_triples == chain_closure_size(length)

        # SCM-SCO's own description, fired as an iterative self-join.
        iterative = InferrayEngine(
            [shaped_rule("ITER", BY_NAME["SCM-SCO"].description)]
        )
        iterative.load_triples(data)
        try:
            iterative_seconds = timed_materialize(
                iterative, timeout=ITERATIVE_TIMEOUT
            )
            iterative_cell = f"{iterative_seconds * 1000:8.0f}ms"
            speedup = f"{iterative_seconds / nuutila_seconds:7.1f}x"
        except MaterializationTimeout:
            iterative_cell = "   timeout"
            speedup = "      ∞"
        print(
            f"{length:>6} {chain_closure_size(length):>10,} "
            f"{nuutila_seconds * 1000:8.0f}ms {iterative_cell} {speedup}"
        )

    print(
        "\nThe closure output grows quadratically (n·(n−1)/2); the"
        "\nNuutila pre-pass pays one linear translation and closes in a"
        "\nsingle pass, while iterative rule application re-sorts and"
        "\nre-deduplicates the growing table every iteration."
    )


if __name__ == "__main__":
    main()
