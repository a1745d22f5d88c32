"""Unit and property tests for the LSD radix variant (§5.3 discussion)."""

from array import array

from hypothesis import given, settings
from hypothesis import strategies as st

from paper.sorting.radix import lsd_radix_sort_pairs, msd_radix_sort_pairs


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def unflat(arr):
    return list(zip(arr[0::2], arr[1::2]))


class TestLsdRadix:
    def test_empty(self):
        assert len(lsd_radix_sort_pairs(array("q"))) == 0

    def test_single(self):
        assert unflat(lsd_radix_sort_pairs(flat([(4, 2)]))) == [(4, 2)]

    def test_sorted_output(self):
        pairs = [((i * 37) % 300, (i * 91) % 300) for i in range(400)]
        assert unflat(lsd_radix_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_stability_gives_object_order_within_subject(self):
        pairs = [(5, 9), (5, 1), (5, 5), (2, 7)]
        assert unflat(lsd_radix_sort_pairs(flat(pairs))) == sorted(pairs)

    def test_adaptive_equals_nonadaptive(self):
        pairs = [((i * 13) % 2000, (i * 7) % 2000) for i in range(300)]
        assert lsd_radix_sort_pairs(
            flat(pairs), adaptive=True
        ) == lsd_radix_sort_pairs(flat(pairs), adaptive=False)

    def test_matches_msd(self):
        pairs = [((i * 13) % 997, (i * 7) % 997) for i in range(500)]
        assert lsd_radix_sort_pairs(flat(pairs)) == msd_radix_sort_pairs(
            flat(pairs)
        )

    def test_dedup(self):
        pairs = [(1, 1), (1, 1), (2, 3)] * 10
        assert unflat(
            lsd_radix_sort_pairs(flat(pairs), dedup=True)
        ) == sorted(set(pairs))

    def test_dense_window(self):
        base = 1 << 32
        pairs = [(base + (i * 7) % 40, base - i % 11) for i in range(150)]
        assert unflat(lsd_radix_sort_pairs(flat(pairs))) == sorted(pairs)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 1 << 20), st.integers(0, 1 << 20)),
        max_size=120,
    )
)
def test_lsd_matches_sorted(pairs):
    assert unflat(lsd_radix_sort_pairs(flat(pairs))) == sorted(pairs)
