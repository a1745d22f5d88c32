"""Ground-truth tests for each backend's one pair sort.

Every backend has exactly one ``sort_pairs`` (python: timsort over
⟨s, o⟩ tuples; numpy: the packed-key sort with a lexsort fallback;
compressed: its inner backend's) and one ``os_view``.  The other
kernel tests compare backends with the python one; these compare every
backend, python included, with ``sorted()`` over Python tuples.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import get_backend, numpy_available

BACKENDS = ["python", "compressed"]
if numpy_available():
    BACKENDS.append("numpy")


@pytest.fixture(params=BACKENDS)
def kernels(request):
    return get_backend(request.param)


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def unflat(values):
    values = [int(v) for v in values]
    return list(zip(values[0::2], values[1::2]))


class TestSortPairs:
    def test_empty(self, kernels):
        assert len(kernels.sort_pairs(array("q"))) == 0

    def test_dedup_collapses_repeats(self, kernels):
        out = kernels.sort_pairs(flat([(1, 1)] * 100), dedup=True)
        assert unflat(out) == [(1, 1)]

    def test_without_dedup_keeps_repeats(self, kernels):
        pairs = [(2, 5), (1, 1)] * 50
        out = kernels.sort_pairs(flat(pairs), dedup=False)
        assert unflat(out) == sorted(pairs)

    def test_dense_subjects(self, kernels):
        # Many pairs over few subjects (the paper's counting-sort regime).
        pairs = [(i % 50, (i * 7) % 90) for i in range(500)]
        out = kernels.sort_pairs(flat(pairs))
        assert unflat(out) == sorted(set(pairs))

    def test_sparse_subjects(self, kernels):
        # Few pairs over a wide subject range (the radix regime).
        pairs = [(i * 1_000_003, i) for i in reversed(range(200))]
        out = kernels.sort_pairs(flat(pairs))
        assert unflat(out) == sorted(set(pairs))

    def test_extreme_values(self, kernels):
        # Too wide for numpy's packed key: exercises the lexsort path.
        big = (1 << 62) - 1
        pairs = [(big, -big), (-big, big), (0, 0), (-1, 1), (big, -big)]
        out = kernels.sort_pairs(flat(pairs))
        assert unflat(out) == sorted(set(pairs))

    def test_odd_length_rejected(self, kernels):
        with pytest.raises(ValueError):
            kernels.sort_pairs(array("q", [1, 2, 3]))


def test_os_view_orders_on_object(kernels):
    pairs = [(s, (s * 13) % 17) for s in range(40)] + [(3, 3), (9, 3)]
    sorted_pairs = kernels.sort_pairs(flat(pairs))
    view = kernels.os_view(sorted_pairs)
    assert unflat(view) == sorted((o, s) for s, o in set(pairs))


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(-10_000, 10_000), st.integers(0, 10_000)),
        max_size=300,
    ),
    st.booleans(),
)
def test_sort_pairs_always_correct(backend, pairs, dedup):
    out = get_backend(backend).sort_pairs(flat(pairs), dedup=dedup)
    expected = sorted(set(pairs)) if dedup else sorted(pairs)
    assert unflat(out) == expected
