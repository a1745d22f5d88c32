"""Unit tests for the immutable asserted id column (a read-only int64
ndarray), built from either flat its producers hand over: the
``array('q')`` an ingest encodes and the ndarray a store file loads."""

import sys
import threading
from array import array
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dictionary import triple_column
from repro.dictionary.encoding import PROPERTY_BASE
from repro.dictionary.triple_column import TripleColumn
from repro.kernels import numpy_backend


#: Property ids far more than 2**16 apart, the nearest first-seen last.
P_FAR, P_MID, P_NEAR = PROPERTY_BASE - 200_000, PROPERTY_BASE - 70_000, PROPERTY_BASE
S, O = PROPERTY_BASE + 1, PROPERTY_BASE + 100

TRIPLES = [
    (S + 5, P_MID, O + 1),
    (S + 1, P_FAR, O + 9),
    (S + 5, P_MID, O + 1),  # asserted twice
    (S + 0, P_NEAR, O + 2),
    (S + 3, P_FAR, O + 0),
    (S + 2, P_MID, O + 7),
    (S + 1, P_NEAR, O + 4),
]


@pytest.fixture(params=["array", "ndarray"])
def column_of(request):
    """Builds a column over ``triples`` from a flat of one type."""
    make_flat = {"array": lambda values: array("q", values),
                 "ndarray": lambda values: np.array(values, dtype=np.int64)}
    return lambda triples: TripleColumn(
        make_flat[request.param](list(chain.from_iterable(triples)))
    )


def test_representation(column_of):
    flat = column_of(TRIPLES).flat
    assert isinstance(flat, np.ndarray) and flat.dtype == np.int64
    with pytest.raises(ValueError):
        flat[0] = 0


def test_sequence_of_triples(column_of):
    column = column_of(TRIPLES)
    assert len(column) == len(TRIPLES)
    assert list(column) == TRIPLES
    assert column[-1] == TRIPLES[-1]
    assert list(column + column_of(TRIPLES[:2])) == TRIPLES + TRIPLES[:2]
    assert list(column_of([])) == [] and len(column_of([])) == 0
    assert list(TripleColumn()) == [] and len(TripleColumn()) == 0
    assert list(TripleColumn.from_triples(TRIPLES)) == TRIPLES


def test_by_property_first_seen_groups_in_column_order(column_of):
    groups = list(column_of(TRIPLES).by_property())
    assert [property_id for property_id, _ in groups] == [P_MID, P_FAR, P_NEAR]
    for property_id, pairs in groups:
        expected = [(s, o) for s, p, o in TRIPLES if p == property_id]
        pairs = [int(value) for value in pairs]
        assert list(zip(pairs[0::2], pairs[1::2])) == expected
    assert list(column_of([]).by_property()) == []


def test_contains_and_without(column_of):
    column = column_of(TRIPLES)
    probes = [TRIPLES[0], None, (S + 5, P_FAR, O + 1), TRIPLES[4], (0, 0, 0)]
    assert column.contains(probes) == [True, False, False, True, False]

    victims = [TRIPLES[0], None, TRIPLES[6], (S + 9, P_MID, O)]
    assert list(column.without(victims)) == [
        t for t in TRIPLES if t not in (TRIPLES[0], TRIPLES[6])
    ]
    assert column.without([(0, 0, 0), None]) is column
    assert list(column) == TRIPLES  # never mutated


def test_appends_leave_every_column_intact(column_of):
    c0 = column_of(TRIPLES[:3]) + column_of(TRIPLES[3:4])
    a, b = column_of(TRIPLES[4:6]), column_of(TRIPLES[6:])
    c1 = c0 + a
    c2 = c0 + b
    c3 = c1 + b
    assert list(c0) == TRIPLES[:4]
    assert list(c1) == TRIPLES[:6]
    assert list(c2) == TRIPLES[:4] + TRIPLES[6:]
    assert list(c3) == TRIPLES
    for column in (c0, c1, c2, c3):
        with pytest.raises(ValueError):
            column.flat[-1] = 0
    # c1 extended c0's buffer in place, and c3 extended c1's; c2 could
    # not (c1 had written past c0's end) and copied.
    assert np.shares_memory(c0.flat, c1.flat)
    assert np.shares_memory(c1.flat, c3.flat)
    assert not np.shares_memory(c0.flat, c2.flat)
    assert list(c0 + column_of([])) == TRIPLES[:4]
    assert list(column_of([]) + c0) == TRIPLES[:4]


def test_concurrent_appends_to_one_column_stay_apart():
    """Threads appending to the same column each get it plus their own
    rows: only one may extend the shared buffer, the rest copy."""
    rounds = 100
    bases = [
        TripleColumn.from_triples(TRIPLES) + TripleColumn.from_triples(
            [(S, P_MID, O + r)]
        )
        for r in range(rounds)
    ]
    batches = [
        TripleColumn.from_triples([(S + t, P_NEAR, O + i) for i in range(50)])
        for t in range(16)
    ]
    results = [[None] * rounds for _ in batches]
    start = threading.Barrier(len(batches))

    def append(index):
        for r in range(rounds):
            start.wait(timeout=60)  # every thread races for round r
            results[index][r] = bases[r] + batches[index]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=append, args=(i,))
                   for i in range(len(batches))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for r, base in enumerate(bases):
        assert list(base) == TRIPLES + [(S, P_MID, O + r)]
        for batch, got in zip(batches, results):
            assert list(got[r]) == list(base) + list(batch)


# ----------------------------------------------------------------------
# The subject index against a list model
# ----------------------------------------------------------------------
#: Ids small enough that subjects repeat, triples are asserted twice and
#: probes miss: every column of a chain is checked over the whole domain.
DOMAIN = [(s, p, o) for s in range(6) for p in range(3) for o in range(4)]
TRIPLE = st.sampled_from(DOMAIN)
OPERATION = st.one_of(
    st.tuples(st.just("append"), st.integers(0, 63),
              st.lists(TRIPLE, max_size=12)),
    st.tuples(st.just("without"), st.integers(0, 63),
              st.lists(st.one_of(TRIPLE, st.none()), max_size=6)),
    st.tuples(st.just("probe"), st.integers(0, 63),
              st.lists(TRIPLE, max_size=3)),
)


def check_chain(chain):
    """Every column holds its model's triples, in order, and answers
    every probe of the domain (and ``None``) as the model does."""
    probes = DOMAIN + [None]
    for column, model in chain:
        assert list(column) == model
        assert column.contains(probes) == [p in model for p in probes]


@pytest.mark.parametrize("share,copy_ratio", [(1, 0), (4, 512), (64, 0),
                                              (64, 512)])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(base=st.lists(TRIPLE, max_size=80),
       operations=st.lists(OPERATION, max_size=14))
def test_index_matches_a_list_model(share, copy_ratio, base, operations):
    """Appends (in place to the newest column, copying from an older
    one), deletes of probes asserted twice, absent or ``None``, and
    probes in between: no column's answers ever change.  ``share``
    sets how far an index is carried before a probe re-sorts, and
    ``copy_ratio`` whether a delete this small copies run by run
    (0: always) or with one ``np.delete``."""
    chain = [(TripleColumn.from_triples(base), list(base))]
    with mock.patch.object(triple_column, "REINDEX_SHARE", share), \
            mock.patch.object(numpy_backend, "RUN_COPY_RATIO", copy_ratio):
        for kind, pick, triples in operations:
            column, model = chain[pick % len(chain)]
            if kind == "append":
                chain.append((column + TripleColumn.from_triples(triples),
                              model + triples))
            elif kind == "without":
                chain.append((column.without(triples),
                              [t for t in model if t not in triples]))
            else:
                assert column.contains(triples) == [
                    t in model for t in triples
                ]
            check_chain(chain)


def test_without_hands_on_its_index():
    """A delete's result shares the sorted subjects it came from, and
    an append to it carries them on: neither re-sorts."""
    column = TripleColumn.from_triples(DOMAIN * 20)
    assert column.contains([DOMAIN[0]]) == [True]
    index = column._index
    kept = column.without([DOMAIN[0], (-1, 0, 0)])
    grown = kept + TripleColumn.from_triples([DOMAIN[0]])
    assert kept._index.subjects is index.subjects
    assert grown._index is kept._index
    assert kept.contains([DOMAIN[0], DOMAIN[5]]) == [False, True]
    assert grown.contains([DOMAIN[0], DOMAIN[5]]) == [True, True]
    # 20 dropped and 1 appended of 1,421 rows: the index is kept.
    assert grown._index is kept._index
    assert list(kept) == [t for t in DOMAIN * 20 if t != DOMAIN[0]]


def test_a_dropped_row_is_never_a_candidate():
    """The index still lists the rows a delete dropped: a probe of their
    subject must skip them, even past the column's last row."""
    column = TripleColumn.from_triples(DOMAIN * 20)
    assert column.contains([DOMAIN[-1]]) == [True]
    last = column.without([DOMAIN[-1]])
    assert last.contains([DOMAIN[-1], DOMAIN[-2]]) == [False, True]
    assert list(last.without([DOMAIN[-2]])) == [
        t for t in DOMAIN * 20 if t not in DOMAIN[-2:]
    ]


def test_index_is_built_on_the_first_probe_only():
    column = TripleColumn.from_triples(DOMAIN)
    grown = column + TripleColumn.from_triples(DOMAIN[:1])
    assert column._index is None and grown._index is None
    assert grown.contains([DOMAIN[1]]) == [True]
    assert column._index is None and grown._index is not None


def test_ingest_and_load_leave_the_asserted_column_unindexed(tmp_path):
    """Neither closing a file nor loading a saved store sorts the
    asserted subjects: the first delete (or membership probe) does."""
    from repro.core.store_api import Store
    from repro.datasets.lubm import lubm_like
    from repro.rdf.ntriples import write_file

    triples = lubm_like(1)
    write_file(triples, str(tmp_path / "in.nt"))
    store = Store.from_file(str(tmp_path / "in.nt"), ruleset="rdfs-plus")
    store.materialize()
    store.save(str(tmp_path / "closed.store"))
    loaded = Store.load(str(tmp_path / "closed.store"))
    for each in (store, loaded):
        assert each.engine.asserted_column._index is None
        each.remove(triples[-1])
        assert each.engine.asserted_column._index is not None
        each.materialize()
        assert triples[-1] not in each.asserted()


def test_first_probes_at_once_all_answer():
    """Threads (more than a small box has cores) make the first probe
    of one unindexed column at the same moment; each may sort, and all
    get the right answers."""
    rows, n_threads = 200_000, 4
    rng = np.random.default_rng(7)
    flat = rng.integers(0, 5_000, size=3 * rows, dtype=np.int64)
    present = [tuple(flat[3 * r : 3 * r + 3].tolist())
               for r in (0, rows // 2, rows - 1)]
    absent = [(-1, 0, 0), (int(flat[0]), -1, 0)]
    probes = present + absent + [None]
    expected = [True] * 3 + [False] * 3
    for _ in range(5):
        column = TripleColumn(flat)
        start = threading.Barrier(n_threads)
        answers = [None] * n_threads

        def probe(slot):
            start.wait(timeout=60)
            answers[slot] = column.contains(probes)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=probe, args=(slot,))
                       for slot in range(n_threads)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert answers == [expected] * n_threads
        assert column.contains(probes) == expected
