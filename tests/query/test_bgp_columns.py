"""The column accessor the evaluator reads through: ``columns()`` /
``table_size()`` / ``property_ids()`` on the stored tables and on the
hybrid view, against a filter of the ``triples()`` they sit beside —
and the pattern form ``query(s, p, o)``, which is one pattern through
the evaluator, against the same filter."""

import functools
import itertools
import random

import pytest

from repro import Store
from repro.datasets import lubm_like
from repro.rdf.terms import IRI
from repro.store.triple_store import TripleStore

BACKENDS = ["python", "compressed", "numpy"]

ROWS = {
    7: [(1, 10), (1, 11), (2, 10), (5, 5), (9, 10), (9, 12)],
    8: [(2, 1)],
}
ABSENT, EMPTY = 6, 5


def rows_of(flat):
    values = flat.tolist()
    return list(zip(values[0::2], values[1::2]))


def check_columns(view, property_id, terms):
    """Every bound/unbound combination of one property's accessor
    against a filter of ``view.triples()``; the terms include ones that
    do not occur."""
    everything = sorted(
        (s, o) for s, p, o in view.triples() if p == property_id
    )
    assert rows_of(view.columns(property_id)) == everything
    assert rows_of(view.columns(property_id, by_object=True)) == sorted(
        (o, s) for s, o in everything
    )
    assert view.table_size(property_id) == len(everything)
    for term in terms:
        by_subject = view.columns(property_id, term)
        assert rows_of(by_subject) == sorted(
            (s, o) for s, o in everything if s == term
        )
        by_object = view.columns(property_id, term, by_object=True)
        assert rows_of(by_object) == sorted(
            (o, s) for s, o in everything if o == term
        )
        # Strided halves are the id columns.
        assert by_subject[0::2].tolist() == [term] * (len(by_subject) // 2)
        assert by_object[1::2].tolist() == sorted(by_object[1::2].tolist())
    for s, o in itertools.product(terms, repeat=2):
        assert ((s, property_id, o) in view) == ((s, o) in everything)


@pytest.mark.parametrize("backend", BACKENDS)
def test_stored_table_columns_match_triples(backend):
    store = TripleStore(backend=backend)
    for property_id, rows in ROWS.items():
        store.add_pairs(property_id, [v for row in rows for v in row])
    store.get_or_create(EMPTY)
    terms = [0, 1, 2, 5, 9, 10, 11, 12, 99]
    for property_id in (7, 8, EMPTY, ABSENT):
        check_columns(store, property_id, terms)
    assert rows_of(store.columns(7)) == ROWS[7]
    assert len(store.columns(ABSENT)) == len(store.columns(EMPTY)) == 0
    assert store.table_size(ABSENT) == store.table_size(EMPTY) == 0
    assert sorted(store.property_ids()) == [7, 8]
    # What a table hands out directly agrees, lists of plain ints.
    table = store.table(7)
    assert table.objects_of(1) == [10, 11] and table.objects_of(3) == []
    assert table.subjects_of(10) == [1, 2, 9] and table.subjects_of(1) == []
    assert all(type(v) is int for v in table.subjects_of(10))


@pytest.mark.parametrize("backend", BACKENDS)
def test_hybrid_view_columns_match_its_triples(backend):
    store = Store(
        lubm_like(1, seed=3), ruleset="rdfs-default", backend=backend,
        materialize="hybrid",
    )
    view = store.snapshot()._tables
    assert store.absorbed_rules, "the view must be virtual for this test"
    assert view.property_ids() == sorted({p for _, p, _ in view.triples()})
    for property_id in view.property_ids():
        rows = [t for t in view.triples() if t[1] == property_id]
        terms = sorted(
            {s for s, _, _ in rows[:6]} | {o for _, _, o in rows[-6:]}
        ) + [10**12]
        check_columns(view, property_id, terms)
    # A property the view has never heard of.
    check_columns(view, 3, [1])


SHAPES = list(itertools.product((False, True), repeat=3))


def shape_id(shape):
    return "".join(v if bound else "?" for v, bound in zip("spo", shape))


@functools.lru_cache(maxsize=None)
def closed_store(mode, backend):
    """One closed store and its ``triples()`` per configuration, shared
    by the shape cases (they only read it)."""
    store = Store(
        lubm_like(1, seed=3), ruleset="rdfs-default", backend=backend,
        materialize=mode,
    )
    closure = list(store.triples())
    assert bool(store.absorbed_rules) == (mode == "hybrid")
    return store, closure


@pytest.mark.parametrize(
    "shape", SHAPES + ["unknown"],
    ids=[shape_id(shape) for shape in SHAPES] + ["unknown"],
)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("mode", ["full", "hybrid"])
def test_pattern_form_is_the_in_order_filter_of_triples(mode, backend, shape):
    """``query(s, p, o)`` on a store, a snapshot and the engine: each
    bound/unbound shape over sampled triples, and an unknown term in
    each position, yields exactly the matching triples of
    ``triples()``, in that order."""
    store, closure = closed_store(mode, backend)
    if shape == "unknown":
        unknown = IRI("http://example.org/never/encoded")
        patterns = [
            tuple(unknown if i == position else None for i in range(3))
            for position in range(3)
        ]
    else:
        patterns = [
            tuple(term if bound else None
                  for term, bound in zip(triple, shape))
            for triple in random.Random(3).sample(closure, 8)
        ]
    readers = (store, store.snapshot(), store.engine)
    for pattern in patterns:
        expected = [
            triple for triple in closure
            if all(t is None or t == v for t, v in zip(pattern, triple))
        ]
        for reader in readers:
            assert list(reader.query(*pattern)) == expected, (
                type(reader).__name__, pattern
            )
