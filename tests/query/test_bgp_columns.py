"""The column accessor the evaluator reads through: ``columns()`` /
``table_size()`` / ``property_ids()`` on the stored tables and on the
hybrid view, against the tuple-yielding ``query()`` they sit beside."""

import itertools

import pytest

from repro import Store
from repro.datasets import lubm_like
from repro.kernels import numpy_available
from repro.store.triple_store import TripleStore

BACKENDS = ["python", "compressed"] + (["numpy"] if numpy_available() else [])

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
    against ``view.query``; the terms include ones that do not occur."""
    everything = sorted((s, o) for s, _, o in view.query(None, property_id))
    assert rows_of(view.columns(property_id)) == everything
    assert rows_of(view.columns(property_id, by_object=True)) == sorted(
        (o, s) for s, o in everything
    )
    assert view.table_size(property_id) == len(everything)
    for term in terms:
        by_subject = view.columns(property_id, term)
        assert rows_of(by_subject) == sorted(
            (s, o) for s, _, o in view.query(term, property_id, None)
        )
        by_object = view.columns(property_id, term, by_object=True)
        assert rows_of(by_object) == sorted(
            (o, s) for s, _, o in view.query(None, property_id, term)
        )
        # Strided halves are the id columns.
        assert by_subject[0::2].tolist() == [term] * (len(by_subject) // 2)
        assert by_object[1::2].tolist() == sorted(by_object[1::2].tolist())
    for s, o in itertools.product(terms, repeat=2):
        assert ((s, property_id, o) in view) == bool(
            list(view.query(s, property_id, o))
        )


@pytest.mark.parametrize("backend", BACKENDS)
def test_stored_table_columns_match_query(backend):
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
def test_hybrid_view_columns_match_its_query(backend):
    store = Store(
        lubm_like(1, seed=3), ruleset="rdfs-default", backend=backend,
        materialize="hybrid",
    )
    view = store.snapshot()._tables
    assert store.absorbed_rules, "the view must be virtual for this test"
    assert view.property_ids() == sorted({p for _, p, _ in view.triples()})
    for property_id in view.property_ids():
        rows = list(view.query(None, property_id))
        terms = sorted(
            {s for s, _, _ in rows[:6]} | {o for _, _, o in rows[-6:]}
        ) + [10**12]
        check_columns(view, property_id, terms)
    # A property the view has never heard of.
    check_columns(view, 3, [1])
