"""Unit tests for the immutable asserted id column, on both of its
representations: an int64 ndarray (NumPy available) and an
``array('q')`` (NumPy disabled)."""

from array import array

import pytest

from repro.dictionary.encoding import PROPERTY_BASE
from repro.dictionary.triple_column import TripleColumn
from repro.kernels import numpy_available

REPRESENTATIONS = ["array"] + (["ndarray"] if numpy_available() else [])


@pytest.fixture(params=REPRESENTATIONS)
def representation(request, monkeypatch):
    if request.param == "array":
        monkeypatch.setenv("REPRO_KERNELS_DISABLE_NUMPY", "1")
    return request.param


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


def test_representation(representation):
    flat = TripleColumn.from_triples(TRIPLES).flat
    assert isinstance(flat, array) == (representation == "array")


def test_sequence_of_triples(representation):
    column = TripleColumn.from_triples(TRIPLES)
    assert len(column) == len(TRIPLES)
    assert list(column) == TRIPLES
    assert column[-1] == TRIPLES[-1]
    assert list(column + TripleColumn.from_triples(TRIPLES[:2])) == (
        TRIPLES + TRIPLES[:2]
    )
    assert list(TripleColumn()) == [] and len(TripleColumn()) == 0


def test_by_property_first_seen_groups_in_column_order(representation):
    groups = list(TripleColumn.from_triples(TRIPLES).by_property())
    assert [property_id for property_id, _ in groups] == [P_MID, P_FAR, P_NEAR]
    for property_id, pairs in groups:
        expected = [(s, o) for s, p, o in TRIPLES if p == property_id]
        pairs = [int(value) for value in pairs]
        assert list(zip(pairs[0::2], pairs[1::2])) == expected
    assert list(TripleColumn().by_property()) == []


def test_contains_and_without(representation):
    column = TripleColumn.from_triples(TRIPLES)
    probes = [TRIPLES[0], None, (S + 5, P_FAR, O + 1), TRIPLES[4], (0, 0, 0)]
    assert column.contains(probes) == [True, False, False, True, False]

    victims = [TRIPLES[0], None, TRIPLES[6], (S + 9, P_MID, O)]
    assert list(column.without(victims)) == [
        t for t in TRIPLES if t not in (TRIPLES[0], TRIPLES[6])
    ]
    assert column.without([(0, 0, 0), None]) is column
    assert list(column) == TRIPLES  # never mutated
