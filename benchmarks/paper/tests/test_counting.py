"""Unit and property tests for the pair counting sort (Algorithm 2)."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.sorting.counting import (
    SortingError,
    counting_sort_pairs,
    counting_sort_values,
)


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def unflat(arr):
    return list(zip(arr[0::2], arr[1::2]))


class TestCountingSortPairs:
    def test_empty(self):
        assert len(counting_sort_pairs(array("q"))) == 0

    def test_single_pair(self):
        assert unflat(counting_sort_pairs(flat([(3, 7)]))) == [(3, 7)]

    def test_sorts_by_subject_then_object(self):
        pairs = [(4, 1), (2, 3), (1, 2), (5, 3), (4, 4)]
        assert unflat(counting_sort_pairs(flat(pairs), dedup=False)) == sorted(
            pairs
        )

    def test_paper_trace_example(self):
        # The exact Figure-6 input: (4,1) (2,3) (1,2) (5,3) (4,4).
        result = counting_sort_pairs(
            flat([(4, 1), (2, 3), (1, 2), (5, 3), (4, 4)])
        )
        assert unflat(result) == [(1, 2), (2, 3), (4, 1), (4, 4), (5, 3)]

    def test_dedup_removes_duplicates(self):
        pairs = [(1, 1), (1, 1), (2, 2), (1, 1), (2, 2)]
        assert unflat(counting_sort_pairs(flat(pairs), dedup=True)) == [
            (1, 1),
            (2, 2),
        ]

    def test_dedup_false_keeps_duplicates(self):
        pairs = [(1, 1), (1, 1)]
        assert unflat(counting_sort_pairs(flat(pairs), dedup=False)) == [
            (1, 1),
            (1, 1),
        ]

    def test_dedup_resets_between_subjects(self):
        # Same object under different subjects must both survive.
        pairs = [(1, 5), (2, 5)]
        assert unflat(counting_sort_pairs(flat(pairs))) == [(1, 5), (2, 5)]

    def test_all_equal_subjects(self):
        pairs = [(7, o) for o in (5, 3, 9, 3, 1)]
        assert unflat(counting_sort_pairs(flat(pairs))) == [
            (7, 1),
            (7, 3),
            (7, 5),
            (7, 9),
        ]

    def test_large_object_subarray_uses_counting(self):
        # > _SMALL_SUBARRAY objects under one subject, narrow range.
        objects = [(i * 7) % 50 for i in range(100)]
        pairs = [(1, o) for o in objects]
        assert unflat(counting_sort_pairs(flat(pairs), dedup=False)) == sorted(
            pairs
        )

    def test_wide_object_range_falls_back(self):
        objects = [i * 1_000_003 for i in range(60, 0, -1)]
        pairs = [(1, o) for o in objects]
        assert unflat(counting_sort_pairs(flat(pairs), dedup=False)) == sorted(
            pairs
        )

    def test_dense_numbering_window(self):
        # Values around 2**32, the realistic regime.
        base = 1 << 32
        pairs = [(base + 5, base + 1), (base + 2, base + 9),
                 (base + 5, base + 1)]
        assert unflat(counting_sort_pairs(flat(pairs))) == [
            (base + 2, base + 9),
            (base + 5, base + 1),
        ]

    def test_negative_values_supported(self):
        pairs = [(-5, 2), (-10, 1), (-5, -7)]
        assert unflat(counting_sort_pairs(flat(pairs))) == sorted(set(pairs))

    def test_odd_length_rejected(self):
        with pytest.raises(SortingError):
            counting_sort_pairs(array("q", [1, 2, 3]))

    def test_input_not_mutated(self):
        data = flat([(3, 1), (1, 2)])
        snapshot = array("q", data)
        counting_sort_pairs(data)
        assert data == snapshot

    def test_returns_trimmed_array(self):
        result = counting_sort_pairs(flat([(1, 1)] * 10))
        assert len(result) == 2


class TestCountingSortValues:
    def test_empty(self):
        assert counting_sort_values([]) == []

    def test_sorts(self):
        assert counting_sort_values([5, 1, 4, 1]) == [1, 1, 4, 5]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 500), st.integers(0, 500)), max_size=200
    )
)
def test_counting_matches_sorted_with_dedup(pairs):
    result = unflat(counting_sort_pairs(flat(pairs), dedup=True))
    assert result == sorted(set(pairs))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 100), st.integers(0, 100)), max_size=200
    )
)
def test_counting_matches_sorted_without_dedup(pairs):
    result = unflat(counting_sort_pairs(flat(pairs), dedup=False))
    assert result == sorted(pairs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers((1 << 32) - 50, (1 << 32) + 50),
            st.integers((1 << 32) - 50, (1 << 32) + 50),
        ),
        max_size=100,
    )
)
def test_counting_dense_window_property(pairs):
    """The realistic dense-numbering window around 2**32."""
    result = unflat(counting_sort_pairs(flat(pairs), dedup=True))
    assert result == sorted(set(pairs))
