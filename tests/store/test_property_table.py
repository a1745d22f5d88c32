"""Unit tests for PropertyTable (vertical partitioning unit)."""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import numpy_available, resolve_backend
from repro.store.property_table import PropertyTable
from repro.store.triple_store import TripleStore

BACKENDS = ["python"] + (["numpy"] if numpy_available() else [])


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def pairs_as_tuples(flat_pairs):
    return list(zip(flat_pairs[0::2], flat_pairs[1::2]))


class TestCommitInvariant:
    def test_empty_table(self):
        t = PropertyTable()
        assert not t
        assert t.n_pairs == 0

    def test_unsorted_input_committed_sorted_unique(self):
        t = PropertyTable(flat([(3, 1), (1, 2), (3, 1), (2, 9)]))
        assert list(t.iter_pairs()) == [(1, 2), (2, 9), (3, 1)]

    def test_len_and_bool(self):
        t = PropertyTable(flat([(1, 1)]))
        assert t.n_pairs == 1
        assert bool(t)


class TestOsCache:
    def test_lazy(self):
        t = PropertyTable(flat([(1, 5), (2, 3)]))
        assert not t.has_os_cache
        view = t.os_pairs()
        assert t.has_os_cache
        assert pairs_as_tuples(view) == [(3, 2), (5, 1)]

    def test_cache_is_permutation(self):
        pairs = [(i % 10, (i * 7) % 30) for i in range(100)]
        t = PropertyTable(flat(pairs))
        so = set(t.iter_pairs())
        os_view = pairs_as_tuples(t.os_pairs())
        assert {(s, o) for o, s in os_view} == so
        assert os_view == sorted(os_view)

    def test_invalidated_by_merge_with_new(self):
        t = PropertyTable(flat([(1, 2)]))
        t.os_pairs()
        t.merge(flat([(5, 5)]))
        assert not t.has_os_cache

    def test_not_invalidated_by_duplicate_merge(self):
        t = PropertyTable(flat([(1, 2)]))
        t.os_pairs()
        new = t.merge(flat([(1, 2)]))
        assert len(new) == 0
        assert t.has_os_cache


class TestLookups:
    def setup_method(self):
        self.t = PropertyTable(
            flat([(1, 10), (1, 20), (2, 10), (5, 1), (5, 2), (5, 3)])
        )

    def test_contains(self):
        assert self.t.contains(1, 10)
        assert self.t.contains(5, 3)
        assert not self.t.contains(1, 11)
        assert not self.t.contains(99, 1)

    def test_objects_of(self):
        assert self.t.objects_of(1) == [10, 20]
        assert self.t.objects_of(42) == []

    def test_subjects_of(self):
        assert self.t.subjects_of(10) == [1, 2]
        assert self.t.subjects_of(42) == []


class TestFigureFiveMerge:
    def test_merge_into_empty(self):
        t = PropertyTable()
        new = t.merge(flat([(1, 1), (2, 2)]))
        assert pairs_as_tuples(new) == [(1, 1), (2, 2)]
        assert list(t.iter_pairs()) == [(1, 1), (2, 2)]

    def test_merge_empty_inferred(self):
        t = PropertyTable(flat([(1, 1)]))
        assert len(t.merge(array("q"))) == 0

    def test_new_is_inferred_minus_main(self):
        t = PropertyTable(flat([(1, 1), (3, 3)]))
        new = t.merge(flat([(1, 1), (2, 2), (4, 4)]))
        assert pairs_as_tuples(new) == [(2, 2), (4, 4)]
        assert list(t.iter_pairs()) == [(1, 1), (2, 2), (3, 3), (4, 4)]

    def test_paper_figure5_example(self):
        # Main: (1,1)(1,8)(4,3)(7,7)... simplified shape: interleaved keys.
        main = [(1, 1), (1, 8), (4, 3), (7, 7)]
        inferred = [(1, 2), (1, 8), (9, 7)]
        t = PropertyTable(flat(main))
        new = t.merge(flat(inferred))
        assert pairs_as_tuples(new) == [(1, 2), (9, 7)]
        assert list(t.iter_pairs()) == sorted(set(main) | set(inferred))

    def test_merge_all_duplicates(self):
        t = PropertyTable(flat([(1, 1), (2, 2)]))
        new = t.merge(flat([(1, 1), (2, 2)]))
        assert len(new) == 0
        assert t.n_pairs == 2


@pytest.mark.parametrize("backend", BACKENDS)
class TestOsCacheInvalidationRegression:
    """Regression: a stale ⟨o, s⟩ cache must never be served (ISSUE 1).

    The cache is built lazily; every path that grows the table after
    the cache exists (direct Figure-5 merge, store-level bulk adds,
    merges into previously-empty tables) has to either invalidate or
    rebuild it — the assertions check the *content* of the served
    view, not just the ``has_os_cache`` flag.
    """

    def test_direct_merge_refreshes_view(self, backend):
        t = PropertyTable(flat([(1, 2), (3, 4)]), backend=backend)
        assert pairs_as_tuples(t.os_pairs()) == [(2, 1), (4, 3)]
        t.merge(flat([(5, 6)]))
        assert pairs_as_tuples(t.os_pairs()) == [(2, 1), (4, 3), (6, 5)]

    def test_merge_into_empty_table_after_cached_empty_view(self, backend):
        t = PropertyTable(backend=backend)
        assert pairs_as_tuples(t.os_pairs()) == []
        t.merge(flat([(7, 8)]))
        assert pairs_as_tuples(t.os_pairs()) == [(8, 7)]

    def test_duplicate_only_merge_keeps_valid_cache(self, backend):
        t = PropertyTable(flat([(1, 2)]), backend=backend)
        cached = t.os_pairs()
        new = t.merge(flat([(1, 2)]))
        assert len(new) == 0
        assert t.os_pairs() is cached  # unchanged table: cache still valid
        assert pairs_as_tuples(t.os_pairs()) == [(2, 1)]

    def test_store_add_pairs_refreshes_subjects_of(self, backend):
        store = TripleStore(backend=backend)
        store.add_pairs(100, flat([(1, 9), (2, 9)]))
        table = store.table(100)
        assert table.subjects_of(9) == [1, 2]  # builds the o-s cache
        assert table.has_os_cache
        store.add_pairs(100, flat([(3, 9)]))
        assert table.subjects_of(9) == [1, 2, 3]


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=60),
    st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=60),
)
def test_merge_set_semantics(main_pairs, inferred_pairs):
    """merge == set union; returned delta == inferred − main."""
    t = PropertyTable(flat(main_pairs))
    sorted_inferred = resolve_backend("auto").sort_pairs(
        flat(inferred_pairs), dedup=True
    )
    new = t.merge(sorted_inferred)
    assert set(t.iter_pairs()) == set(main_pairs) | set(inferred_pairs)
    assert list(t.iter_pairs()) == sorted(set(main_pairs) | set(inferred_pairs))
    assert set(pairs_as_tuples(new)) == set(inferred_pairs) - set(main_pairs)
