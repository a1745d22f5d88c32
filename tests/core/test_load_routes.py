"""File route ≡ object route: the same ids whichever way data comes in.

``Store.from_file`` / ``engine.load_file`` take an N-Triples file to
per-property id columns without building a ``Triple`` per statement;
``Store(triples)`` / ``engine.load_triples`` encode ``Triple`` objects.
Both must number every term identically — persistence, snapshots and
the pipeline benchmark's digests compare encoded ids across them — and
a file that fails to parse must leave no trace on either.
"""

import pytest

from repro.core.engine import InferrayEngine
from repro.core.store_api import Store
from repro.datasets import bsbm_like, lubm_like, subclass_tree
from repro.dictionary.encoding import (
    Dictionary,
    DictionaryError,
    encode_columns,
    encode_dataset,
)
from repro.rdf.ntriples import (
    NTriplesError,
    parse_file,
    read_columns,
    write_file,
)
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.vocabulary import OWL, RDF, RDFS

BACKENDS = ["python", "compressed", "numpy"]
MODES = ["full", "hybrid"]


def ex(name):
    return IRI(f"http://example.org/{name}")


def _taxonomy():
    triples = list(subclass_tree(4))
    leaves = sorted({t.subject for t in triples} - {t.object for t in triples},
                    key=lambda term: term.value)
    triples += [
        Triple(ex(f"inst/i{i}"), RDF.type, leaves[i % len(leaves)])
        for i in range(40)
    ]
    # Schema statements that move their subjects/objects into the
    # property space, and a term spelled with and without an escape.
    triples += [
        Triple(ex("narrower"), RDFS.subPropertyOf, ex("related")),
        Triple(ex("related"), RDF.type, OWL.SymmetricProperty),
        Triple(ex("related"), RDFS.domain, leaves[0]),
        Triple(ex("inst/i0"), ex("narrower"), ex("inst/i1")),
        Triple(ex("inst/i0"), RDFS.label, Literal('tab\there "quoted"')),
        Triple(ex("inst/i1"), RDFS.label, Literal("é", language="fr")),
    ]
    return triples


DATASETS = {
    "bsbm": ("rdfs-default", lambda: bsbm_like(25)),
    "lubm": ("rdfs-plus", lambda: lubm_like(2)),
    "taxonomy": ("rdfs-default", _taxonomy),
}


@pytest.fixture(scope="module", params=sorted(DATASETS))
def dataset(request, tmp_path_factory):
    ruleset, build = DATASETS[request.param]
    triples = build()
    path = tmp_path_factory.mktemp("routes") / f"{request.param}.nt"
    write_file(triples, str(path))
    return ruleset, triples, str(path)


def state(engine):
    """Everything route identity covers, in comparable form."""
    return {
        "term_lists": engine.dictionary.term_lists(),
        "asserted": list(engine.asserted_column),
        "tables": [
            (pid, [int(v) for v in flat])
            for pid, flat in engine.main.table_arrays()
        ],
        "table_order": engine.main.property_ids(),
    }


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("backend", BACKENDS)
class TestRoutesAssignIdenticalIds:
    def stores(self, dataset, backend, mode):
        ruleset, triples, path = dataset
        options = dict(ruleset=ruleset, backend=backend, materialize=mode)
        return (
            Store.from_file(path, **options),
            Store(parse_file(path), **options),
            Store(triples, **options),
        )

    def test_before_and_after_materialize(self, dataset, backend, mode):
        ruleset, triples, path = dataset
        from_file, from_parse, from_objects = self.stores(
            dataset, backend, mode
        )
        engine = InferrayEngine(
            ruleset, backend=backend, materialize_mode=mode
        )
        engine.load_triples(list(triples))
        engine.materialize()
        for store in (from_file, from_parse, from_objects):
            assert store.n_asserted == len(triples)
            assert store.stale
            store.materialize()
        reference = state(engine)
        assert state(from_file.engine) == reference
        assert state(from_parse.engine) == reference
        assert state(from_objects.engine) == reference
        assert set(from_file.triples()) == set(from_parse.triples())

    def test_remove_before_first_flush(self, dataset, backend, mode):
        _, triples, _ = dataset
        victims = [triples[0], triples[len(triples) // 2], triples[-1]]
        results = []
        for store in self.stores(dataset, backend, mode):
            assert store.remove(victims) == len(set(victims))
            results.append(
                (set(store.triples()), set(store.asserted()))
            )
            assert not any(v in store.asserted() for v in victims)
        assert results[0] == results[1] == results[2]

    def test_add_file_onto_materialized_store_is_incremental(
        self, dataset, backend, mode, tmp_path, monkeypatch
    ):
        ruleset, triples, path = dataset
        extra = [
            Triple(ex("late/x"), RDF.type, triples[0].subject),
            Triple(ex("late/x"), RDFS.label, Literal("late")),
        ]
        extra_path = str(tmp_path / "extra.nt")
        write_file(extra, extra_path)
        options = dict(ruleset=ruleset, backend=backend, materialize=mode)

        by_file = Store.from_file(path, **options)
        by_file.materialize()
        calls = []
        original = InferrayEngine.materialize_incremental

        def spy(self, added, **kwargs):
            added = list(added)
            calls.append(len(added))
            return original(self, added, **kwargs)

        monkeypatch.setattr(InferrayEngine, "materialize_incremental", spy)
        assert by_file.add_file(extra_path) == len(extra)
        assert by_file.stale and by_file.n_asserted == len(triples) + 2
        by_file.materialize()
        assert calls == [len(extra)]
        monkeypatch.undo()

        by_objects = Store(triples, **options)
        by_objects.materialize()
        by_objects.add(extra)
        by_objects.materialize()
        assert state(by_file.engine) == state(by_objects.engine)

    def test_two_files_before_the_first_flush(
        self, dataset, backend, mode, tmp_path
    ):
        ruleset, triples, path = dataset
        half = len(triples) // 2
        first, second = str(tmp_path / "a.nt"), str(tmp_path / "b.nt")
        write_file(triples[:half], first)
        write_file(triples[half:], second)
        options = dict(ruleset=ruleset, backend=backend, materialize=mode)
        store = Store(**options)
        assert store.add_file(first) == half
        assert store.add_file(second) == len(triples) - half
        whole = Store.from_file(path, **options)
        assert set(store.triples()) == set(whole.triples())
        assert store.asserted() == whole.asserted()

        # The other order: whatever the halves share is numbered as if
        # both had been queued and encoded together.
        swapped = Store(**options)
        swapped.add_file(second)
        swapped.add_file(first)
        queued = Store(triples[half:] + triples[:half], **options)
        swapped.materialize()
        queued.materialize()
        assert state(swapped.engine) == state(queued.engine)


DATA = [
    Triple(ex("bart"), ex("likes"), ex("knows")),
    Triple(ex("bart"), RDF.type, ex("Human")),
]
# Uses ex:knows — so far only an object — as a property, after a
# predicate the dictionary has not seen.
SCHEMA = [
    Triple(ex("bart"), ex("admires"), ex("lisa")),
    Triple(ex("knows"), RDFS.subPropertyOf, ex("related")),
    Triple(ex("bart"), ex("knows"), ex("lisa")),
    Triple(ex("Human"), RDFS.subClassOf, ex("Mammal")),
]


@pytest.fixture
def data_then_schema(tmp_path):
    data, schema = str(tmp_path / "data.nt"), str(tmp_path / "schema.nt")
    write_file(DATA, data)
    write_file(SCHEMA, schema)
    return data, schema


class TestInputBeforeTheFirstFlushIsOneDataset:
    """Data first, schema second: the schema promotes a term the data
    used as a resource.  Before any closure exists that must not raise
    — the union is numbered like one queued dataset."""

    def assert_like_queued(self, store, triples):
        queued = Store(triples)
        assert store.n_asserted == len(triples)
        store.materialize()
        queued.materialize()
        assert state(store.engine) == state(queued.engine)
        assert Triple(ex("bart"), ex("related"), ex("lisa")) in store
        assert Triple(ex("bart"), RDF.type, ex("Mammal")) in store

    def test_two_files(self, data_then_schema):
        data, schema = data_then_schema
        store = Store()
        assert store.add_file(data) == len(DATA)
        assert store.add_file(schema) == len(SCHEMA)
        self.assert_like_queued(store, DATA + SCHEMA)

    def test_file_then_triples(self, data_then_schema):
        data, _ = data_then_schema
        store = Store.from_file(data)
        assert store.add(SCHEMA) == len(SCHEMA)
        self.assert_like_queued(store, DATA + SCHEMA)

    def test_file_then_remove_then_triples(self, data_then_schema):
        data, _ = data_then_schema
        store = Store.from_file(data)
        assert store.remove(DATA[1]) == 1
        store.add(SCHEMA)
        store.materialize()
        assert store.asserted() == [DATA[0]] + SCHEMA
        assert Triple(ex("bart"), ex("related"), ex("lisa")) in store
        assert Triple(ex("bart"), RDF.type, ex("Mammal")) not in store

    def test_rejected_input_leaves_the_dictionary_alone(
        self, data_then_schema
    ):
        data, schema = data_then_schema
        engine = InferrayEngine()
        engine.load_file(data)
        before = state(engine)
        with pytest.raises(DictionaryError):
            engine.load_file(schema)
        assert state(engine) == before
        with pytest.raises(DictionaryError):
            engine.load_triples(SCHEMA)
        assert state(engine) == before


class TestEncodeColumns:
    def test_matches_encode_dataset_on_a_used_dictionary(self, dataset):
        _, triples, path = dataset
        seed = [Triple(ex("seed/s"), ex("seed/p"), triples[0].subject)]
        by_objects, _ = encode_dataset(seed, Dictionary())
        by_columns, _ = encode_dataset(seed, Dictionary())
        _, encoded = encode_dataset(list(parse_file(path)), by_objects)
        _, pairs, from_columns = encode_columns(
            *read_columns(path), dictionary=by_columns
        )
        assert list(from_columns) == list(encoded)
        assert by_columns.term_lists() == by_objects.term_lists()
        flat = {}
        for subject, prop, obj in encoded:
            flat.setdefault(prop, []).extend((subject, obj))
        assert {p: list(column) for p, column in pairs.items()} == flat
        assert list(pairs) == list(flat)  # first-seen property order

    def test_two_spellings_of_a_term_share_an_id(self, tmp_path):
        path = tmp_path / "spellings.nt"
        path.write_text(
            '<http://a> <http://p> "a" .\n'
            '<http://a> <http://p> "\\u0061" .\n'
            "<http://\\u0061> <http://p> <http://a> .\n",
            encoding="utf-8",
        )
        columns = read_columns(str(path))
        assert len(columns.terms) > len(set(columns.terms))
        dictionary, _, encoded = encode_columns(*columns)
        assert encoded[0] == encoded[1]
        assert encoded[2][0] == encoded[2][2] == encoded[0][0]
        assert len(dictionary) == len(set(columns.terms))


MALFORMED = (
    "<http://example.org/a> <http://example.org/p> <http://example.org/b> .\n"
    "<http://example.org/b> <http://example.org/p> <http://example.org/c> .\n"
    "<http://example.org/c> <http://example.org/p> <http://example.org/d\n"
    "<http://example.org/d> <http://example.org/p> <http://example.org/e> .\n"
)


@pytest.fixture
def malformed(tmp_path):
    path = tmp_path / "bad.nt"
    path.write_text(MALFORMED, encoding="utf-8")
    return str(path)


class TestFailedFileLoadsAreAtomic:
    """A malformed line 3 used to leave lines 1–2 queued: ``list.extend``
    keeps what a raising generator already yielded."""

    def assert_untouched(self, store, n_terms):
        assert store.n_asserted == 0
        assert len(store.engine.dictionary) == n_terms
        assert store.engine.main.n_triples == 0
        assert list(store.triples()) == []

    def test_add_file_on_a_fresh_store(self, malformed):
        store = Store()
        n_terms = len(store.engine.dictionary)
        with pytest.raises(NTriplesError) as excinfo:
            store.add_file(malformed)
        assert excinfo.value.line_no == 3
        self.assert_untouched(store, n_terms)

    def test_from_file(self, malformed):
        with pytest.raises(NTriplesError):
            Store.from_file(malformed)

    def test_add_file_on_the_queued_route(self, malformed):
        kept = Triple(ex("kept"), RDF.type, ex("Thing"))
        store = Store([kept])
        with pytest.raises(NTriplesError):
            store.add_file(malformed)
        assert store.n_asserted == 1
        assert store.asserted() == [kept]

    def test_add_file_on_a_materialized_store(self, malformed):
        kept = Triple(ex("kept"), RDF.type, ex("Thing"))
        store = Store([kept])
        store.materialize()
        epoch, n_terms = store._epoch, len(store.engine.dictionary)
        with pytest.raises(NTriplesError):
            store.add_file(malformed)
        assert not store.stale and store._epoch == epoch
        assert len(store.engine.dictionary) == n_terms
        assert store.asserted() == [kept]

    def test_engine_load_file(self, malformed):
        engine = InferrayEngine()
        n_terms = len(engine.dictionary)
        with pytest.raises(NTriplesError):
            engine.load_file(malformed)
        assert engine.n_asserted == 0
        assert len(engine.dictionary) == n_terms
        assert engine.main.n_triples == 0

    def test_add_of_a_raising_iterable(self):
        def triples():
            yield Triple(ex("a"), RDF.type, ex("b"))
            raise RuntimeError("source failed")

        store = Store()
        with pytest.raises(RuntimeError):
            store.add(triples())
        assert store.n_asserted == 0
