"""Table 1 — pair-sort throughput across the (range × size) grid.

Paper: "Performance in millions of pairs/second for counting, MSD radix
adaptive for ranges and sizes from 500K to 50M", against generic
128-bit sorting algorithms.

Reproduction: the grid is scaled ~100× down (pure-Python constant
factor); the contribution sorts are compared against the *same
substrate* generic sorts (pure-Python mergesort / quicksort — the
apples-to-apples comparison that preserves the shape), with CPython's
C timsort and NumPy's C quicksort reported as accelerated references,
playing the role of the SIMD rows the paper quotes from Satish et al.

Run the full grid:   python benchmarks/bench_table1_sorting.py
Pytest-benchmark:    pytest benchmarks/bench_table1_sorting.py --benchmark-only
"""

import random
import time
from array import array

import pytest

from repro.kernels.python_backend import PYTHON_KERNELS
from repro.sorting.counting import counting_sort_pairs
from repro.sorting.dispatch import entropy_bits
from repro.sorting.generic import (
    mergesort_pairs,
    numpy_sort_pairs,
    quicksort_pairs,
)
from repro.sorting.radix import msd_radix_sort_pairs

BASE = 1 << 32  # dense-numbering window

#: (range, size) grid — the paper uses 500K–50M; scaled ~100×.
RANGES = [5_000, 10_000, 50_000, 100_000, 250_000]
SIZES = [5_000, 10_000, 50_000, 100_000, 250_000]

ALGORITHMS = {
    "Counting": lambda pairs: counting_sort_pairs(pairs, dedup=False),
    "MSDA Radix": lambda pairs: msd_radix_sort_pairs(pairs, dedup=False),
    "Mergesort (py)": mergesort_pairs,
    "Quicksort (py)": quicksort_pairs,
}

ACCELERATED = {
    "Timsort (C ref)": lambda pairs: PYTHON_KERNELS.sort_pairs(
        pairs, dedup=False
    ),
    "NumPy qsort (C ref)": numpy_sort_pairs,
}


def make_pairs(key_range: int, size: int, seed: int = 0) -> array:
    """Uniform random pairs in the dense window around 2**32."""
    rng = random.Random((key_range, size, seed).__hash__())
    flat = array("q", bytes(16 * size))
    for i in range(size):
        flat[2 * i] = BASE + rng.randrange(key_range)
        flat[2 * i + 1] = BASE + rng.randrange(key_range)
    return flat


def throughput_mpairs(sort_fn, pairs: array, repeats: int = 3) -> float:
    """Best-of-N millions of pairs per second."""
    size = len(pairs) // 2
    best = float("inf")
    for _ in range(repeats):
        data = array("q", pairs)
        started = time.perf_counter()
        sort_fn(data)
        best = min(best, time.perf_counter() - started)
    return size / best / 1e6


def run_grid(ranges=None, sizes=None, repeats=3):
    """The Table-1 matrix: rows (range, algorithm), columns sizes."""
    ranges = ranges or RANGES
    sizes = sizes or SIZES
    rows = []
    for key_range in ranges:
        for name, fn in ALGORITHMS.items():
            if name in ("Mergesort (py)", "Quicksort (py)"):
                continue  # generic rows are printed once, below
            cells = [
                throughput_mpairs(fn, make_pairs(key_range, size), repeats)
                for size in sizes
            ]
            rows.append((key_range, name, cells))
    generic_rows = []
    for name in ("Mergesort (py)", "Quicksort (py)"):
        fn = ALGORITHMS[name]
        cells = [
            throughput_mpairs(fn, make_pairs(size, size), repeats)
            for size in sizes
        ]
        generic_rows.append((name, cells))
    for name, fn in ACCELERATED.items():
        cells = [
            throughput_mpairs(fn, make_pairs(size, size), repeats)
            for size in sizes
        ]
        generic_rows.append((name, cells))
    return rows, generic_rows, sizes


def main():
    from repro.bench.harness import format_table

    rows, generic_rows, sizes = run_grid()
    headers = ["Range (entropy) / Algorithm"] + [
        f"{s // 1000}K" for s in sizes
    ]
    table_rows = []
    for key_range, name, cells in rows:
        label = f"{key_range // 1000}K ({entropy_bits(key_range):.1f})  {name}"
        table_rows.append([label] + [f"{c:.3f}" for c in cells])
    for name, cells in generic_rows:
        table_rows.append(
            [f"generic       {name}"] + [f"{c:.3f}" for c in cells]
        )
    print("Table 1 — sorting throughput (millions of pairs / second)")
    print(format_table(headers, table_rows))
    print(
        "\nExpected shape: Counting wins when size ≥ range; MSDA radix is"
        "\nsize-robust and wins on sparse data; both beat same-substrate"
        "\ngeneric sorts. C-reference rows are hardware-accelerated."
    )


# ----------------------------------------------------------------------
# pytest-benchmark entry points (one representative cell per regime)
# ----------------------------------------------------------------------
_DENSE = make_pairs(5_000, 50_000)     # size >> range: counting regime
_SPARSE = make_pairs(250_000, 10_000)  # range >> size: radix regime


@pytest.mark.benchmark(group="table1-dense")
def test_counting_dense(benchmark):
    benchmark(lambda: counting_sort_pairs(array("q", _DENSE), dedup=False))


@pytest.mark.benchmark(group="table1-dense")
def test_radix_dense(benchmark):
    benchmark(
        lambda: msd_radix_sort_pairs(array("q", _DENSE), dedup=False)
    )


@pytest.mark.benchmark(group="table1-dense")
def test_mergesort_dense(benchmark):
    benchmark(lambda: mergesort_pairs(array("q", _DENSE)))


@pytest.mark.benchmark(group="table1-sparse")
def test_counting_sparse(benchmark):
    benchmark(lambda: counting_sort_pairs(array("q", _SPARSE), dedup=False))


@pytest.mark.benchmark(group="table1-sparse")
def test_radix_sparse(benchmark):
    benchmark(
        lambda: msd_radix_sort_pairs(array("q", _SPARSE), dedup=False)
    )


@pytest.mark.benchmark(group="table1-sparse")
def test_quicksort_sparse(benchmark):
    benchmark(lambda: quicksort_pairs(array("q", _SPARSE)))


if __name__ == "__main__":
    main()
