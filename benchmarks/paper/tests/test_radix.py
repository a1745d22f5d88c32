"""Unit and property tests for the MSD / MSDA radix pair sort."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from paper.sorting.counting import SortingError
from paper.sorting.radix import (
    msd_radix_sort_pairs,
    msda_radix_sort_pairs,
    significant_bytes,
)


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def unflat(arr):
    return list(zip(arr[0::2], arr[1::2]))


class TestSignificantBytes:
    def test_zero(self):
        assert significant_bytes(0) == 1

    def test_one_byte(self):
        assert significant_bytes(255) == 1

    def test_two_bytes(self):
        assert significant_bytes(256) == 2

    def test_paper_example_10m_range(self):
        # "For a range of 10 million with an 8-bit radix, significant
        # values start at the sixth byte out of eight" — i.e. 3 bytes.
        assert significant_bytes(10_000_000) == 3

    def test_full_64_bits(self):
        assert significant_bytes((1 << 64) - 1) == 8

    def test_negative_rejected(self):
        with pytest.raises(SortingError):
            significant_bytes(-1)


class TestRadixSort:
    def test_empty(self):
        assert len(msd_radix_sort_pairs(array("q"))) == 0

    def test_single(self):
        assert unflat(msd_radix_sort_pairs(flat([(9, 2)]))) == [(9, 2)]

    def test_small_block_fallback(self):
        pairs = [(3, 1), (1, 5), (2, 2)]
        assert unflat(msd_radix_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_large_sorts_by_subject_then_object(self):
        pairs = [((i * 37) % 500, (i * 91) % 500) for i in range(400)]
        assert unflat(msd_radix_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_equal_subjects_recurse_on_objects(self):
        pairs = [(7, (i * 13) % 300) for i in range(200)]
        assert unflat(msd_radix_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_adaptive_equals_standard(self):
        pairs = [((i * 37) % 1000, (i * 91) % 1000) for i in range(300)]
        adaptive = msd_radix_sort_pairs(flat(pairs), adaptive=True)
        standard = msd_radix_sort_pairs(flat(pairs), adaptive=False)
        assert adaptive == standard

    def test_dense_window_values(self):
        base = 1 << 32
        pairs = [(base - i % 7, base + (i * 11) % 90) for i in range(150)]
        assert unflat(msda_radix_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_dedup(self):
        pairs = [(1, 1), (1, 1), (2, 5), (2, 5), (1, 3)] * 20
        result = unflat(msd_radix_sort_pairs(flat(pairs), dedup=True))
        assert result == sorted(set(pairs))

    def test_no_dedup_keeps_multiplicity(self):
        pairs = [(1, 1)] * 100
        result = unflat(msd_radix_sort_pairs(flat(pairs), dedup=False))
        assert result == pairs

    def test_input_not_mutated(self):
        data = flat([(3, 1), (1, 2)] * 40)
        snapshot = array("q", data)
        msd_radix_sort_pairs(data)
        assert data == snapshot

    def test_odd_length_rejected(self):
        with pytest.raises(SortingError):
            msd_radix_sort_pairs(array("q", [1]))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, (1 << 40)), st.integers(0, (1 << 40))
        ),
        max_size=150,
    )
)
def test_radix_matches_sorted(pairs):
    result = unflat(msd_radix_sort_pairs(flat(pairs)))
    assert result == sorted(pairs)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 300), st.integers(0, 300)), max_size=150
    ),
    st.booleans(),
)
def test_radix_dedup_property(pairs, adaptive):
    result = unflat(
        msd_radix_sort_pairs(flat(pairs), dedup=True, adaptive=adaptive)
    )
    assert result == sorted(set(pairs))
