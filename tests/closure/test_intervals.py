"""Unit and property tests for IntervalSet."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.closure.intervals import IntervalSet


def union_of(spans):
    """The union of inclusive ``(low, high)`` spans, built the way the
    closure pipeline builds reach sets: ``union_update`` of singles."""
    out = IntervalSet()
    for low, high in spans:
        out.union_update(IntervalSet.single(low, high))
    return out


class TestConstruction:
    def test_empty(self):
        s = IntervalSet()
        assert not s
        assert len(s) == 0
        assert s.intervals() == []

    def test_single(self):
        s = IntervalSet.single(3, 7)
        assert s.intervals() == [(3, 7)]
        assert len(s) == 5

    def test_single_empty_rejected(self):
        with pytest.raises(ValueError):
            IntervalSet.single(5, 4)


class TestMutation:
    def test_adjacent_values_coalesce(self):
        s = union_of([(1, 1), (2, 2), (3, 3)])
        assert s.intervals() == [(1, 3)]

    def test_overlapping_intervals_coalesce(self):
        s = union_of([(1, 5)])
        s.union_update(IntervalSet.single(3, 9))
        assert s.intervals() == [(1, 9)]

    def test_disjoint_intervals_stay_apart(self):
        s = union_of([(1, 2)])
        s.union_update(IntervalSet.single(10, 12))
        assert s.intervals() == [(1, 2), (10, 12)]

    def test_union_update(self):
        a = union_of([(1, 3), (10, 12)])
        b = union_of([(4, 5), (11, 20)])
        a.union_update(b)
        assert a.intervals() == [(1, 5), (10, 20)]

    def test_union_with_empty(self):
        a = union_of([(1, 2)])
        a.union_update(IntervalSet())
        assert a.intervals() == [(1, 2)]
        b = IntervalSet()
        b.union_update(a)
        assert b.intervals() == [(1, 2)]
        # and the copy is independent
        b.union_update(IntervalSet.single(100, 100))
        assert 100 not in a


class TestQueries:
    def test_contains_binary_search(self):
        s = union_of([(1, 3), (7, 9), (20, 25)])
        for v in (1, 2, 3, 7, 9, 22):
            assert v in s
        for v in (0, 4, 6, 10, 19, 26):
            assert v not in s

    def test_iter_ascending(self):
        s = union_of([(5, 6), (1, 2)])
        assert list(s) == [1, 2, 5, 6]

    def test_len_cardinality(self):
        s = union_of([(1, 3), (10, 10)])
        assert len(s) == 4


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.integers(0, 200), max_size=80),
    st.lists(st.integers(0, 200), max_size=80),
)
def test_union_matches_set_semantics(values_a, values_b):
    a = union_of((v, v) for v in values_a)
    b = union_of((v, v) for v in values_b)
    a.union_update(b)
    assert list(a) == sorted(set(values_a) | set(values_b))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 300), st.integers(0, 30))))
def test_interval_invariants(spans):
    """Intervals stay sorted, disjoint and non-adjacent after any adds."""
    s = union_of((start, start + width) for start, width in spans)
    intervals = s.intervals()
    for (lo1, hi1), (lo2, hi2) in zip(intervals, intervals[1:]):
        assert hi1 + 1 < lo2  # disjoint and non-adjacent
        assert lo1 <= hi1 and lo2 <= hi2
