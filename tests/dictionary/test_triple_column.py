"""Unit tests for the immutable asserted id column (a read-only int64
ndarray), built from either flat its producers hand over: the
``array('q')`` an ingest encodes and the ndarray a store file loads."""

import sys
import threading
from array import array
from itertools import chain

import numpy as np
import pytest

from repro.dictionary.encoding import PROPERTY_BASE
from repro.dictionary.triple_column import TripleColumn


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
