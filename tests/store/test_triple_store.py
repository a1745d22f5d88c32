"""Unit tests for TripleStore and InferredBuffers."""

from array import array

from repro.store.triple_store import InferredBuffers, TripleStore


def flat(pairs):
    out = array("q")
    for s, o in pairs:
        out.append(s)
        out.append(o)
    return out


def n_raw(buffers):
    """Raw (pre-dedup) pairs buffered."""
    chunks = [chunk for _, chunks in buffers.chunk_items() for chunk in chunks]
    return sum(map(len, chunks)) // 2


class TestInferredBuffers:
    def test_emit_accumulates(self):
        buffers = InferredBuffers()
        buffers.emit(10, 1, 2)
        buffers.emit(10, 3, 4)
        buffers.emit(20, 5, 6)
        assert n_raw(buffers) == 3
        assert bool(buffers)

    def test_extend(self):
        buffers = InferredBuffers()
        buffers.extend(10, flat([(1, 2), (3, 4)]))
        buffers.extend(10, array("q"))
        assert n_raw(buffers) == 2

    def test_empty(self):
        buffers = InferredBuffers()
        assert not buffers
        assert n_raw(buffers) == 0

    def test_extend_keeps_chunk_reference(self):
        buffers = InferredBuffers()
        chunk = flat([(1, 2), (3, 4)])
        buffers.extend(10, chunk)
        [(pid, chunks)] = list(buffers.chunk_items())
        assert pid == 10
        assert chunks[0] is chunk  # zero-copy

    def test_chunk_items_gathers_emits_and_chunks(self):
        buffers = InferredBuffers()
        buffers.emit(10, 1, 2)
        buffers.extend(10, flat([(3, 4)]))
        buffers.extend(20, [5, 6])
        chunks = dict(buffers.chunk_items())
        assert [list(chunk) for chunk in chunks[10]] == [[1, 2], [3, 4]]
        assert [list(chunk) for chunk in chunks[20]] == [[5, 6]]
        assert n_raw(buffers) == 3


class TestTripleStoreLoading:
    def test_add_encoded_partitions_by_property(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2), (3, 100, 4), (5, 200, 6)])
        assert store.n_triples == 3
        assert store.table(100).n_pairs == 2
        assert store.table(200).n_pairs == 1
        assert store.table(300) is None

    def test_add_encoded_dedups(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2)] * 5)
        assert store.n_triples == 1

    def test_incremental_add_merges(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2)])
        store.add_encoded([(1, 100, 2), (9, 100, 9)])
        assert store.table(100).n_pairs == 2

    def test_add_pairs(self):
        store = TripleStore()
        store.add_pairs(100, flat([(2, 2), (1, 1)]))
        assert list(store.table(100).iter_pairs()) == [(1, 1), (2, 2)]

    def test_contains(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2)])
        assert (1, 100, 2) in store
        assert (1, 100, 3) not in store
        assert (1, 999, 2) not in store


class TestMergeInferred:
    def test_returns_delta_store(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2)])
        buffers = InferredBuffers()
        buffers.emit(100, 1, 2)  # duplicate
        buffers.emit(100, 7, 8)  # new
        buffers.emit(200, 5, 5)  # new property
        new = store.merge_inferred(buffers)
        assert new.n_triples == 2
        assert (7, 100, 8) in new
        assert (5, 200, 5) in new
        assert (1, 100, 2) not in new
        assert store.n_triples == 3

    def test_empty_buffers_empty_delta(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2)])
        new = store.merge_inferred(InferredBuffers())
        assert new.n_triples == 0
        assert not new

    def test_raw_duplicates_collapsed(self):
        store = TripleStore()
        buffers = InferredBuffers()
        for _ in range(10):
            buffers.emit(100, 1, 2)
        new = store.merge_inferred(buffers)
        assert new.n_triples == 1

    def test_own_buffers_merge_and_keep_their_sorted_rows(self):
        store = TripleStore()
        store.add_encoded([(1, 100, 2)])
        shared = InferredBuffers()
        shared.emit(100, 5, 5)
        shared.emit(100, 6, 6)
        mine = InferredBuffers()
        mine.emit(100, 9, 9)
        mine.emit(100, 1, 2)  # already stored: still one of its rows
        mine.emit(100, 5, 5)  # also emitted by another rule
        mine.emit(100, 9, 9)
        mine.emit(200, 3, 4)
        new = store.merge_inferred(shared, {7: mine})
        assert set(new.triples()) == {
            (5, 100, 5), (6, 100, 6), (9, 100, 9), (3, 200, 4)
        }
        assert store.n_triples == 5
        rows = {pid: list(flat) for pid, flat in new.own_rows[7].items()}
        assert rows == {100: [1, 2, 5, 5, 9, 9], 200: [3, 4]}
        # Fed by `mine` alone: the delta table itself stands for its rows,
        # and the rule's view drops it without a difference pass.
        assert new.own_rows[7][200] is new.table(200).pairs
        assert set(new.without(new.own_rows[7], keep=-1).triples()) == {
            (6, 100, 6)
        }

    def test_without_drops_rows_but_keeps_one_property(self):
        store = TripleStore()
        store.add_encoded(
            [(1, 100, 2), (3, 100, 4), (5, 200, 6), (7, 300, 8)]
        )
        kept = store.table(300)
        view = store.without(
            {100: flat([(3, 4), (9, 9)]), 200: flat([(5, 6)]),
             300: flat([(7, 8)])},
            keep=300,
        )
        assert set(view.triples()) == {(1, 100, 2), (7, 300, 8)}
        assert view.table(200) is None
        assert view.table(300) is kept  # shared, not copied
        assert store.n_triples == 4  # the store itself is untouched


def rows_of(flat_pairs):
    values = flat_pairs.tolist()
    return list(zip(values[0::2], values[1::2]))


class TestQueries:
    """Each lookup shape through the id-level accessors the BGP
    evaluator reads: ``in``, ``columns()``, ``table_size()`` and
    ``triples()``."""

    def setup_method(self):
        self.store = TripleStore()
        self.store.add_encoded(
            [(1, 100, 2), (1, 100, 3), (4, 100, 2), (1, 200, 9)]
        )

    def test_fully_bound(self):
        assert (1, 100, 2) in self.store
        assert (1, 100, 99) not in self.store

    def test_subject_property(self):
        assert rows_of(self.store.columns(100, 1)) == [(1, 2), (1, 3)]

    def test_object_property(self):
        assert rows_of(self.store.columns(100, 2, by_object=True)) == [
            (2, 1),
            (2, 4),
        ]

    def test_property_only(self):
        assert self.store.table_size(100) == 3
        assert len(rows_of(self.store.columns(100))) == 3

    def test_subject_across_properties(self):
        assert sum(
            len(rows_of(self.store.columns(pid, 1)))
            for pid in self.store.property_ids()
        ) == 3

    def test_full_scan(self):
        assert len(list(self.store.triples())) == self.store.n_triples == 4

    def test_triples_iteration(self):
        assert set(self.store.triples()) == {
            (1, 100, 2), (1, 100, 3), (4, 100, 2), (1, 200, 9)
        }

    def test_missing_property(self):
        assert len(self.store.columns(999)) == 0
        assert self.store.table_size(999) == 0
        assert (1, 999, 2) not in self.store


class TestMisc:
    def test_property_ids_skips_empty(self):
        store = TripleStore()
        store.get_or_create(123)
        store.add_encoded([(1, 100, 2)])
        assert store.property_ids() == [100]
