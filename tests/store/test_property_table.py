"""Unit tests for PropertyTable (vertical partitioning unit)."""

import sys
import threading
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import InferrayEngine
from repro.kernels import resolve_backend
from repro.kernels.base import SMALL_SIDE_RATIO
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS
from repro.store.property_table import PropertyTable
from repro.store.triple_store import TripleStore

BACKENDS = ["python", "numpy", "compressed"]


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def pairs_as_tuples(flat_pairs):
    values = as_ints(flat_pairs)  # a compressed view has no strided slices
    return list(zip(values[0::2], values[1::2]))


def as_ints(flat_pairs):
    return [int(value) for value in flat_pairs]


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


#: A table the small-delta fold applies to: 8 new rows are well under
#: 1/SMALL_SIDE_RATIO of it.
BIG = [(s, (s * 7919) % 1013) for s in range(0, 3 * 8 * SMALL_SIDE_RATIO, 3)]


def served_view_is_os_view(table):
    kernels = resolve_backend(table._kernels)
    assert as_ints(table.os_pairs()) == as_ints(kernels.os_view(table.pairs))


@pytest.mark.parametrize("backend", BACKENDS)
class TestOsViewFold:
    """A small delta is folded into the cached ⟨o, s⟩ view, not re-sorted:
    the view stays materialised and serves exactly the re-sorted one."""

    def store(self, backend):
        store = TripleStore(backend=backend)
        store.add_pairs(100, flat(BIG))
        store.table(100).os_pairs()
        return store

    def test_merge_of_few_rows_keeps_the_view(self, backend):
        store = self.store(backend)
        table = store.table(100)
        new = table.merge(store.kernels.sort_pairs(
            flat([(1, 5), (2, 2000), (10 ** 6, 0), BIG[3]])
        ))
        assert len(new) == 6
        assert table.has_os_cache
        served_view_is_os_view(table)
        assert table.subjects_of(2000) == [2]

    def test_removal_of_few_rows_keeps_the_view(self, backend):
        store = self.store(backend)
        gone = sorted(BIG[5:9]) + [(1, 1)]  # (1, 1) is absent
        store.remove_pairs(100, store.kernels.sort_pairs(flat(gone)))
        table = store.table(100)
        assert table.n_pairs == len(BIG) - 4
        assert table.has_os_cache
        served_view_is_os_view(table)

    def test_adds_and_removes_fold_in_order(self, backend):
        store = self.store(backend)
        table = store.table(100)
        sort = store.kernels.sort_pairs
        table.merge(sort(flat([(1, 5)])))
        store.remove_pairs(100, sort(flat([(1, 5), BIG[0]])))
        table.merge(sort(flat([(1, 5), (2, 6)])))
        assert table.has_os_cache
        served_view_is_os_view(table)
        assert table.contains(1, 5) and table.contains(2, 6)

    def test_many_rows_drop_the_view(self, backend):
        store = self.store(backend)
        table = store.table(100)
        many = [(1, o) for o in range(len(BIG) // SMALL_SIDE_RATIO + 1)]
        table.merge(store.kernels.sort_pairs(flat(many)))
        assert not table.has_os_cache
        served_view_is_os_view(table)

    def test_a_view_taken_before_serves_its_own_state(self, backend):
        store = self.store(backend)
        before = store.share_view()
        old_view = as_ints(before.table(100).os_pairs())
        store.table(100).merge(store.kernels.sort_pairs(flat([(1, 5)])))
        store.remove_pairs(100, store.kernels.sort_pairs(flat(BIG[:2])))
        after = store.share_view()
        assert as_ints(before.table(100).os_pairs()) == old_view
        assert list(before.table(100).iter_pairs()) == BIG
        served_view_is_os_view(after.table(100))
        served_view_is_os_view(store.table(100))

    def test_concurrent_reads_fold_the_same_view(self, backend):
        kernels = resolve_backend(backend)
        tables, expected = [], []
        for r in range(20):
            table = self.store(backend).table(100)
            table.merge(kernels.sort_pairs(flat([(1, 5 + r), (2, 6)])))
            table.remove(kernels.sort_pairs(flat([BIG[r]])))
            tables.append(table)
            expected.append(as_ints(kernels.os_view(table.pairs)))
        seen = [[] for _ in tables]

        def read():
            for table, views in zip(tables, seen):
                views.append(as_ints(table.os_pairs()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=read) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for views, want in zip(seen, expected):
            assert views == [want] * 8

    def test_memory_counts_pending_rows(self, backend):
        store = self.store(backend)
        table = store.table(100)
        kernels = store.kernels
        cache = table.os_pairs()
        new = table.merge(kernels.sort_pairs(flat([(1, 5), (2, 6)])))
        assert table.memory_bytes() == sum(
            kernels.flat_nbytes(part) for part in (table.pairs, cache, new)
        )

    def test_dred_keeps_the_type_view(self, backend):
        ex = "http://example.org/"
        triples = [Triple(IRI(ex + "A"), RDFS.subClassOf, IRI(ex + "B"))]
        triples += [
            Triple(IRI(f"{ex}i{i}"), RDF.type, IRI(ex + "A"))
            for i in range(4 * SMALL_SIDE_RATIO)
        ]
        engine = InferrayEngine("rdfs-default", backend=backend)
        engine.load_triples(triples)
        engine.materialize()
        type_id = engine.dictionary.ids_of(triples[1])[1]
        engine.main.table(type_id).os_pairs()
        stats = engine.retract_and_rematerialize(triples[1:3])
        assert stats.deletion["route"] == "dred"
        table = engine.main.table(type_id)
        assert table.n_pairs == 2 * (4 * SMALL_SIDE_RATIO - 2)
        assert table.has_os_cache
        served_view_is_os_view(table)


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
