"""Tests for the Table-1 throughput measure."""

import time
from array import array

from bench_table1_sorting import throughput_mpairs


def test_first_call_is_not_timed():
    # A sort whose first call pays a one-off cost (numpy_sort_pairs
    # imports numpy on its first call) must be reported at the speed
    # of its later calls.
    calls = []

    def sort(pairs):
        calls.append(len(pairs))
        if len(calls) == 1:
            time.sleep(0.2)
        return pairs

    pairs = array("q", range(2000))
    mpairs = throughput_mpairs(sort, pairs, repeats=1)
    assert mpairs > 1000 / 0.1 / 1e6
    assert len(calls) == 2
