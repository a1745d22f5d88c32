"""Unit tests for the generic sorting baselines (Table-1 comparison set)."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.sorting.generic import (
    mergesort_pairs,
    numpy_sort_pairs,
    quicksort_pairs,
)


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def unflat(arr):
    return list(zip(arr[0::2], arr[1::2]))


SAMPLE = [((i * 37) % 211, (i * 91) % 173) for i in range(500)]


class TestMergesort:
    def test_empty(self):
        assert len(mergesort_pairs(array("q"))) == 0

    def test_sorted_output(self):
        assert unflat(mergesort_pairs(flat(SAMPLE))) == sorted(SAMPLE)

    def test_stability_irrelevant_but_total(self):
        pairs = [(1, 2), (1, 1), (0, 9)]
        assert unflat(mergesort_pairs(flat(pairs))) == sorted(pairs)


class TestQuicksort:
    def test_empty(self):
        assert len(quicksort_pairs(array("q"))) == 0

    def test_sorted_output(self):
        assert unflat(quicksort_pairs(flat(SAMPLE))) == sorted(SAMPLE)

    def test_adversarial_sorted_input(self):
        pairs = [(i, i) for i in range(300)]
        assert unflat(quicksort_pairs(flat(pairs))) == pairs

    def test_adversarial_reverse_input(self):
        pairs = [(i, i) for i in range(300, 0, -1)]
        assert unflat(quicksort_pairs(flat(pairs))) == sorted(pairs)

    def test_all_equal(self):
        pairs = [(5, 5)] * 200
        assert unflat(quicksort_pairs(flat(pairs))) == pairs


class TestNumpySort:
    def test_sorted_output(self):
        assert unflat(numpy_sort_pairs(flat(SAMPLE))) == sorted(SAMPLE)

    def test_mergesort_kind(self):
        result = numpy_sort_pairs(flat(SAMPLE), kind="stable")
        assert unflat(result) == sorted(SAMPLE)

    def test_dense_window(self):
        base = 1 << 32
        pairs = [(base + (i * 7) % 100, base - (i % 50)) for i in range(200)]
        assert unflat(numpy_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_unpackable_range_rejected(self):
        pairs = [(0, 0), (1 << 40, 5)]
        with pytest.raises(ValueError):
            numpy_sort_pairs(flat(pairs))

    def test_empty(self):
        assert len(numpy_sort_pairs(array("q"))) == 0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 5_000), st.integers(0, 5_000)),
        max_size=200,
    )
)
def test_generic_sorts_agree(pairs):
    """All baselines produce the identical total order."""
    expected = sorted(pairs)
    data = flat(pairs)
    assert unflat(mergesort_pairs(data)) == expected
    assert unflat(quicksort_pairs(data)) == expected
    assert unflat(numpy_sort_pairs(data)) == expected if pairs else True
