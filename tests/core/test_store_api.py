"""Tests for the unified Store facade (store_api.py).

Covers the four tentpole capabilities — lazy materialization,
snapshot-isolated reads, the unified query entry point, and
persistence — plus the acceptance round-trip, on every available
kernel backend.
"""

import random
import struct
import warnings

import pytest

from repro.core.store_api import (
    Snapshot,
    Store,
    StoreConfig,
    StoreFormatError,
    is_store_file,
)
from repro.core.store_file import _flat_to_le_bytes, _le_bytes_to_flat
from repro.kernels import get_backend
from repro.query.bgp import Query, TriplePattern, Var
from repro.rdf.terms import IRI, Literal, Triple
from repro.rdf.vocabulary import RDF, RDFS

BACKENDS = ["python", "compressed", "numpy"]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def ex(name):
    return IRI(f"ex:{name}")


DATA = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
    Triple(ex("Lisa"), RDF.type, ex("human")),
]


def batch_closure(triples, ruleset="rdfs-default"):
    from repro.core.engine import InferrayEngine

    engine = InferrayEngine(ruleset)
    engine.load_triples(triples)
    engine.materialize()
    return set(engine.triples())


class TestLazyMaterialization:
    def test_constructor_does_not_materialize(self, backend):
        store = Store(DATA, backend=backend)
        assert store.stale
        assert not store.engine.is_materialized

    def test_read_triggers_materialization(self, backend):
        store = Store(DATA, backend=backend)
        assert Triple(ex("Bart"), RDF.type, ex("animal")) in store
        assert not store.stale

    def test_add_marks_stale_and_next_read_is_incremental(self, backend):
        store = Store(DATA, backend=backend)
        store.materialize()
        store.add(Triple(ex("Maggie"), RDF.type, ex("human")))
        assert store.stale
        assert Triple(ex("Maggie"), RDF.type, ex("animal")) in store
        assert set(store.triples()) == batch_closure(
            DATA + [Triple(ex("Maggie"), RDF.type, ex("human"))]
        )

    def test_add_single_or_iterable(self):
        store = Store()
        assert store.add(Triple(ex("a"), RDF.type, ex("b"))) == 1
        assert store.add([Triple(ex("c"), RDF.type, ex("d"))] * 2) == 2
        assert store.n_asserted == 3

    def test_every_read_form_flushes(self, backend):
        reads = [
            lambda s: s.n_triples,
            lambda s: list(s.triples()),
            lambda s: list(s.query(None, RDF.type, None)),
            lambda s: s.query("?x a ex:animal"),
            lambda s: list(s.inferred()),
            lambda s: s.snapshot(),
        ]
        for read in reads:
            store = Store(DATA, backend=backend)
            read(store)
            assert not store.stale

    def test_remove_triggers_rebuild(self, backend):
        store = Store(DATA, backend=backend)
        store.materialize()
        store.remove(Triple(ex("Lisa"), RDF.type, ex("human")))
        assert Triple(ex("Lisa"), RDF.type, ex("animal")) not in store
        assert set(store.triples()) == batch_closure(DATA[:3])

    def test_remove_pending_add_never_materializes_it(self):
        store = Store(DATA)
        extra = Triple(ex("Maggie"), RDF.type, ex("human"))
        store.add(extra)
        store.remove(extra)
        assert Triple(ex("Maggie"), RDF.type, ex("animal")) not in store
        assert set(store.triples()) == batch_closure(DATA)

    def test_remove_beats_redundant_pending_add(self):
        # T is asserted AND re-queued via add(): remove() must drop the
        # queued copy and still retract the asserted one.
        target = Triple(ex("Bart"), RDF.type, ex("human"))
        store = Store(DATA)
        store.materialize()
        store.add(target)  # idempotent re-assert
        store.remove(target)
        assert target not in store
        assert Triple(ex("Bart"), RDF.type, ex("animal")) not in store
        assert set(store.triples()) == batch_closure(
            [t for t in DATA if t != target]
        )

    def test_remove_drops_every_queued_duplicate(self):
        target = Triple(ex("Maggie"), RDF.type, ex("human"))
        store = Store(DATA)
        store.add(target)
        store.add(target)
        store.remove(target)
        assert target not in store
        assert set(store.triples()) == batch_closure(DATA)

    def test_incremental_timeout_leaves_store_stale_and_recovers(self):
        from repro.core.engine import MaterializationTimeout
        from repro.datasets.chains import subclass_chain

        base = subclass_chain(30)
        extra = [
            Triple(
                IRI("http://example.org/chain/n29"),
                RDFS.subClassOf,
                IRI("http://example.org/beyond"),
            )
        ]
        store = Store(base)
        store.materialize()
        with pytest.raises(MaterializationTimeout):
            store.engine.materialize_incremental(
                extra, timeout_seconds=1e-9
            )
        # The aborted delta must not masquerade as a complete closure.
        assert not store.engine.is_materialized
        assert store.stale
        # The next read recovers to the exact batch closure.
        assert set(store.triples()) == batch_closure(base + extra)

    def test_remove_unknown_is_noop(self):
        store = Store(DATA)
        store.remove(Triple(ex("nobody"), RDF.type, ex("nothing")))
        assert set(store.triples()) == batch_closure(DATA)

    def test_interleaved_add_remove_equals_batch(self, backend):
        extra = Triple(ex("Maggie"), RDF.type, ex("human"))
        store = Store(DATA, backend=backend)
        store.materialize()
        store.add(extra)
        store.remove(Triple(ex("Lisa"), RDF.type, ex("human")))
        assert set(store.triples()) == batch_closure(DATA[:3] + [extra])

    def test_materialize_reports_flush_stats(self):
        store = Store(DATA)
        stats = store.materialize()
        if store.materialize_mode == "hybrid":
            # Absorbed entailments are virtual: the stored delta may be
            # empty, but the served closure still grows past the input.
            assert store.n_triples > stats.n_input
        else:
            assert stats.n_inferred > 0
        assert store.stats is stats
        # Idempotent re-entry: no pending work -> zero-work stats.
        again = store.materialize()
        assert again.n_inferred == 0
        assert again.iterations == 0


class TestUnifiedQuery:
    @pytest.fixture()
    def store(self):
        return Store(
            DATA + [Triple(ex("Bart"), ex("sister"), ex("Lisa"))]
        )

    def test_pattern_form(self, store):
        types = {t.object for t in store.query(ex("Bart"), RDF.type, None)}
        assert types == {ex("human"), ex("mammal"), ex("animal")}

    def test_pattern_keywords(self, store):
        subjects = {
            t.subject for t in store.query(predicate=RDF.type, obj=ex("animal"))
        }
        assert subjects == {ex("Bart"), ex("Lisa")}

    def test_unknown_term_matches_nothing(self, store):
        assert list(store.query(ex("nobody"), None, None)) == []

    @pytest.mark.parametrize(
        "args, position",
        [
            # A str is not looked up as if it were a term.
            (("ex:Bart", RDF.type, None), "subject"),
            # A tuple of BGP tokens is not a list of patterns.
            ((("?s", RDF.type, "?o"),), "subject"),
            # A BGP string followed by more arguments is a pattern form.
            (("?s a ?o", None), "subject"),
            ((ex("Bart"), "rdf:type", None), "predicate"),
            ((None, RDF.type, Var("o")), "object"),
        ],
    )
    def test_pattern_form_rejects_non_terms(self, store, args, position):
        with pytest.raises(TypeError, match=position):
            store.query(*args)
        with pytest.raises(TypeError, match=position):
            store.snapshot().query(*args)

    def test_bgp_string(self, store):
        solutions = store.query("?who a ex:animal")
        assert {s["who"] for s in solutions} == {ex("Bart"), ex("Lisa")}

    def test_bgp_string_join(self, store):
        solutions = store.query("?b ex:sister ?s . ?s a ex:mammal")
        assert solutions == [{"b": ex("Bart"), "s": ex("Lisa")}]

    def test_triple_pattern_objects(self, store):
        pattern = TriplePattern(Var("x"), RDFS.subClassOf, Var("y"))
        assert len(store.query(pattern)) == len(store.query([pattern]))

    def test_query_object_passthrough(self, store):
        query = Query.parse(("?x", RDF.type, "ex:animal"))
        assert len(store.query(query)) == 2

    def test_select_and_ask(self, store):
        rows = store.select("?who a ex:animal", "who")
        assert sorted(str(r[0]) for r in rows) == ["ex:Bart", "ex:Lisa"]
        assert len(store.evaluate("ex:Bart a ex:animal")) == 1
        assert len(store.evaluate("ex:Lisa a ex:unicorn")) == 0

    def test_empty_pattern_list_rejected(self, store):
        with pytest.raises(ValueError):
            store.query([])


class TestInferredAsserted:
    def test_split_matches_definition(self):
        store = Store(DATA)
        asserted = set(store.asserted())
        inferred = set(store.inferred())
        assert asserted == set(DATA)
        assert asserted.isdisjoint(inferred)
        assert asserted | inferred == set(store.triples())

    def test_duplicate_assertions_collapse(self):
        store = Store(DATA + DATA)
        assert len(store.asserted()) == len(DATA)

    def test_asserted_triple_rederived_is_not_inferred(self):
        # subClassOf(human, animal) is derivable AND asserted: the
        # asserted side wins in the split.
        data = DATA + [Triple(ex("human"), RDFS.subClassOf, ex("animal"))]
        store = Store(data)
        assert Triple(ex("human"), RDFS.subClassOf, ex("animal")) not in set(
            store.inferred()
        )


class TestSnapshots:
    def test_snapshot_is_point_in_time(self, backend):
        store = Store(DATA, backend=backend)
        snapshot = store.snapshot()
        before = set(snapshot.triples())
        asserted, inferred = snapshot.asserted(), set(snapshot.inferred())
        store.add(Triple(ex("Maggie"), RDF.type, ex("human")))
        assert Triple(ex("Maggie"), RDF.type, ex("animal")) in store
        assert set(snapshot.triples()) == before
        assert Triple(ex("Maggie"), RDF.type, ex("animal")) not in snapshot
        assert snapshot.asserted() == asserted
        assert set(snapshot.inferred()) == inferred

    def test_snapshot_survives_deletion_rebuild(self, backend):
        store = Store(DATA, backend=backend)
        snapshot = store.snapshot()
        asserted, inferred = snapshot.asserted(), set(snapshot.inferred())
        store.remove(Triple(ex("Lisa"), RDF.type, ex("human")))
        assert Triple(ex("Lisa"), RDF.type, ex("animal")) not in store
        assert Triple(ex("Lisa"), RDF.type, ex("animal")) in snapshot
        assert set(snapshot.triples()) == batch_closure(DATA)
        store.materialize()
        assert snapshot.asserted() == asserted
        assert set(snapshot.inferred()) == inferred

    def test_snapshot_asserted_keeps_first_seen_order(self, backend):
        triples = [
            Triple(ex(f"s{index:02d}"), RDF.type, ex("human"))
            for index in range(20, 0, -1)
        ]
        store = Store(triples, backend=backend)
        assert store.asserted() == triples
        assert store.snapshot().asserted() == store.asserted()

    def test_snapshot_queries(self):
        store = Store(DATA)
        snapshot = store.snapshot()
        assert isinstance(snapshot, Snapshot)
        assert {s["who"] for s in snapshot.query("?who a ex:animal")} == {
            ex("Bart"),
            ex("Lisa"),
        }
        assert snapshot.n_triples == store.n_triples
        assert set(snapshot.inferred()) == set(store.inferred())

    def test_snapshot_is_cheap_no_inference(self):
        store = Store(DATA)
        store.materialize()
        stats_before = store.engine.stats
        snapshot = store.snapshot()
        assert store.engine.stats is stats_before
        assert snapshot.n_triples == store.n_triples


class TestBulkRemove:
    #: ``loaded`` removes from a store read back from its file, so the
    #: asserted column is the one the loader decodes, not the ingest's.
    @pytest.mark.parametrize("source", ["ingested", "loaded"])
    @pytest.mark.parametrize("backend", ["python", "compressed", "numpy"])
    def test_matches_list_model(self, backend, source, tmp_path):
        classes = [ex(f"C{index}") for index in range(5)]
        schema = [Triple(c, RDFS.subClassOf, ex("Top")) for c in classes]
        facts = [
            Triple(ex(f"i{index}"), RDF.type, classes[index % 5])
            for index in range(1500)
        ]
        asserted = schema + facts + facts[:300]  # 300 asserted twice
        store = Store(asserted, backend=backend)
        if source == "loaded":
            path = str(tmp_path / "closure.store")
            store.save(path)
            store = Store.load(path, backend=backend)
        snapshot = store.snapshot()
        before = snapshot.asserted(), set(snapshot.inferred())

        inferred_only = [
            Triple(ex(f"i{index}"), RDF.type, ex("Top"))
            for index in range(0, 1500, 5)
        ]
        unknown = [
            Triple(ex(f"u{index}"), RDF.type, classes[0]) for index in range(100)
        ] + [  # every term known, the triple never asserted
            Triple(ex(f"i{index}"), RDF.type, classes[(index + 1) % 5])
            for index in range(100)
        ]
        victims = facts[0:1200:2] + inferred_only + unknown + facts[:3]
        random.Random(7).shuffle(victims)
        assert len(victims) >= 1000

        gone = set(victims)
        model = [t for t in asserted if t not in gone]
        assert store.remove(victims) == len(gone & set(asserted))
        store.materialize()
        assert store.asserted() == list(dict.fromkeys(model))
        assert store.n_asserted == len(model)
        assert set(store.triples()) == batch_closure(model)
        assert (snapshot.asserted(), set(snapshot.inferred())) == before


class TestPersistence:
    def test_round_trip(self, backend, tmp_path):
        """Acceptance: build -> materialize -> save -> load answers
        identically without re-running inference."""
        path = str(tmp_path / "closure.store")
        store = Store(
            DATA + [Triple(ex("Bart"), ex("sister"), ex("Lisa"))],
            backend=backend,
        )
        store.materialize()
        store.save(path)
        assert is_store_file(path)

        loaded = Store.load(path, backend=backend)
        assert loaded.engine.is_materialized
        assert loaded.engine.stats is None  # nothing ran at load
        assert sorted(t.n3() for t in loaded.triples()) == sorted(
            t.n3() for t in store.triples()
        )
        # Pattern and BGP queries work; still no inference ran.
        assert {
            t.object for t in loaded.query(ex("Bart"), RDF.type, None)
        } == {ex("human"), ex("mammal"), ex("animal")}
        assert loaded.query("?b ex:sister ?s") == [
            {"b": ex("Bart"), "s": ex("Lisa")}
        ]
        assert loaded.engine.stats is None
        assert set(loaded.inferred()) == set(store.inferred())

    @pytest.mark.parametrize("flat_backend", ["python", "numpy"])
    def test_raw_blobs_are_little_endian_int64(self, flat_backend):
        # Raw tables and the asserted column are written the same way
        # from either backend's flat type, and read back writable.
        values = [3, -1, 1 << 40, 0, -(1 << 62), 7]
        blob = _flat_to_le_bytes(get_backend(flat_backend).asarray(values))
        assert blob == struct.pack("<6q", *values)
        back = _le_bytes_to_flat(blob)
        assert back.tolist() == values
        assert back.flags.writeable

    def test_cross_backend_round_trip(self, tmp_path):
        path = str(tmp_path / "closure.store")
        store = Store(DATA, backend="numpy")
        store.save(path)
        loaded = Store.load(path, backend="python")
        assert set(loaded.triples()) == set(store.triples())
        assert loaded.engine.kernels.name == "python"

    def test_literals_and_bnodes_round_trip(self, tmp_path):
        from repro.rdf.terms import BlankNode

        path = str(tmp_path / "b.store")
        data = [
            Triple(BlankNode("b0"), RDF.type, ex("human")),
            Triple(ex("Bart"), ex("name"), Literal("Bart")),
            Triple(
                ex("Bart"),
                ex("age"),
                Literal("10", "http://www.w3.org/2001/XMLSchema#integer"),
            ),
            Triple(ex("Bart"), ex("motto"), Literal("ay caramba", None, "es")),
            Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
        ]
        store = Store(data)
        store.save(path)
        loaded = Store.load(path)
        assert set(loaded.triples()) == set(store.triples())
        assert set(loaded.asserted()) == set(store.asserted())

    def test_loaded_store_accepts_mutations(self, tmp_path):
        path = str(tmp_path / "m.store")
        store = Store(DATA)
        store.save(path)
        loaded = Store.load(path)
        loaded.add(Triple(ex("Maggie"), RDF.type, ex("human")))
        assert Triple(ex("Maggie"), RDF.type, ex("animal")) in loaded
        loaded.remove(Triple(ex("Bart"), RDF.type, ex("human")))
        assert Triple(ex("Bart"), RDF.type, ex("animal")) not in loaded

    def test_save_flushes_pending(self, tmp_path):
        path = str(tmp_path / "p.store")
        store = Store(DATA)
        store.add(Triple(ex("Maggie"), RDF.type, ex("human")))
        store.save(path)
        loaded = Store.load(path)
        assert Triple(ex("Maggie"), RDF.type, ex("animal")) in loaded

    def test_ruleset_and_empty_store_round_trip(self, tmp_path):
        path = str(tmp_path / "e.store")
        store = Store(ruleset="rho-df")
        store.save(path)
        loaded = Store.load(path)
        assert loaded.engine.ruleset_name == "rho-df"
        assert loaded.n_triples == 0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.store"
        path.write_bytes(b"definitely not a store")
        assert not is_store_file(str(path))
        with pytest.raises(StoreFormatError):
            Store.load(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        path = str(tmp_path / "t.store")
        store = Store(DATA)
        store.save(path)
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(path, "wb") as handle:
            handle.write(blob[:-8])
        with pytest.raises(StoreFormatError):
            Store.load(str(path))

    def test_stale_sort_header_loads_on_every_backend(self, backend, tmp_path):
        """A v4 file whose header names a forced scalar sort (written
        when the engine still had that axis) opens on every backend,
        ``auto`` included, with the same closure: the value is
        ignored."""
        import json
        import struct

        from repro.core.store_api import STORE_MAGIC
        from repro.kernels import resolve_backend

        path = str(tmp_path / "counting.store")
        store = Store(DATA)
        store.save(path)
        with open(path, "rb") as handle:
            blob = handle.read()
        start = len(STORE_MAGIC) + 4
        (n,) = struct.unpack("<I", blob[start - 4:start])
        header = json.loads(blob[start:start + n])
        assert header["algorithm"] == "auto"
        header["algorithm"] = "counting"
        payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
        with open(path, "wb") as handle:
            handle.write(
                STORE_MAGIC + struct.pack("<I", len(payload)) + payload
                + blob[start + n:]
            )
        expected = sorted(t.n3() for t in store.triples())

        loaded = Store.load(path, backend=backend)
        assert loaded.engine.kernels.name == backend
        assert sorted(t.n3() for t in loaded.triples()) == expected
        default = Store.load(path)
        assert default.engine.kernels is resolve_backend("auto")
        assert sorted(t.n3() for t in default.triples()) == expected

    def test_custom_ruleset_needs_override(self, tmp_path):
        from repro.rules.rulesets import get_ruleset

        path = str(tmp_path / "c.store")
        store = Store(DATA, ruleset=get_ruleset("rdfs-default"))
        store.save(path)
        with pytest.raises(StoreFormatError):
            Store.load(path)
        loaded = Store.load(path, ruleset="rdfs-default")
        assert set(loaded.triples()) == set(store.triples())


def _read_header(path):
    import json
    import struct

    from repro.core.store_api import STORE_MAGIC

    with open(path, "rb") as handle:
        assert handle.read(len(STORE_MAGIC)) == STORE_MAGIC
        (n,) = struct.unpack("<I", handle.read(4))
        return json.loads(handle.read(n))


class TestCompressedPersistence:
    """Format version 3: compressed tables stored as block streams."""

    def _saved(self, tmp_path, backend="compressed"):
        path = str(tmp_path / "c.store")
        store = Store(
            DATA + [Triple(ex("Bart"), ex("sister"), ex("Lisa"))],
            backend=backend,
        )
        store.materialize()
        store.save(path)
        return path, store

    def test_compressed_save_writes_v4_crp1(self, tmp_path):
        from repro.core.store_api import STORE_FORMAT_VERSION

        path, _ = self._saved(tmp_path)
        header = _read_header(path)
        assert header["version"] == STORE_FORMAT_VERSION
        assert header["tables"]
        for entry in header["tables"]:
            assert entry["encoding"] == "crp1"
            assert entry["n_bytes"] > 0
            assert isinstance(entry["crc32"], int)

    def test_raw_backend_save_writes_v4_raw_tables(self, tmp_path):
        from repro.core.store_api import STORE_FORMAT_VERSION

        path, _ = self._saved(tmp_path, backend="python")
        header = _read_header(path)
        assert header["version"] == STORE_FORMAT_VERSION
        assert all("encoding" not in e for e in header["tables"])
        assert all(isinstance(e["crc32"], int) for e in header["tables"])
        assert isinstance(header["asserted_crc32"], int)
        assert header["payload_bytes"] > 0

    def test_compressed_reload_keeps_compressed_tables(self, tmp_path):
        from repro.kernels.compressed_backend import CompressedPairs

        path, store = self._saved(tmp_path)
        loaded = Store.load(path, backend="compressed")
        assert loaded.engine.kernels.name == "compressed"
        tables = list(loaded.engine.main.table_arrays())
        assert tables
        # O(read) reload: block streams are adopted verbatim, never
        # decoded to a flat int64 image.
        assert all(isinstance(flat, CompressedPairs) for _, flat in tables)
        assert set(loaded.triples()) == set(store.triples())
        assert set(loaded.inferred()) == set(store.inferred())

    @pytest.mark.parametrize(
        "load_backend",
        ["python", "numpy"],
    )
    def test_compressed_file_loads_under_raw_backends(
        self, tmp_path, load_backend
    ):
        path, store = self._saved(tmp_path)
        loaded = Store.load(path, backend=load_backend)
        assert loaded.engine.kernels.name == load_backend
        assert set(loaded.triples()) == set(store.triples())

    def test_raw_file_loads_under_compressed_backend(self, tmp_path):
        path, store = self._saved(tmp_path, backend="python")
        loaded = Store.load(path, backend="compressed")
        assert loaded.engine.kernels.name == "compressed"
        assert set(loaded.triples()) == set(store.triples())

    def test_corrupt_compressed_blob_rejected(self, tmp_path):
        import struct

        from repro.core.store_api import STORE_MAGIC

        path, _ = self._saved(tmp_path)
        with open(path, "rb") as handle:
            blob = bytearray(handle.read())
        header_len = struct.unpack_from(
            "<I", blob, len(STORE_MAGIC)
        )[0]
        tables_start = len(STORE_MAGIC) + 4 + header_len
        # Flip a byte inside the first table's block stream, past its
        # 8-byte magic so the failure is a decode error, not a sniff.
        blob[tables_start + 12] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        with pytest.raises(StoreFormatError):
            Store.load(path, backend="compressed")


class TestStoreConfig:
    def test_config_object(self):
        config = StoreConfig(ruleset="rho-df", backend="python")
        store = Store(DATA, config=config)
        assert store.engine.ruleset_name == "rho-df"
        assert store.engine.kernels.name == "python"

    def test_config_with_overrides(self):
        config = StoreConfig(ruleset="rho-df")
        store = Store(DATA, config=config, ruleset="rdfs-full")
        assert store.engine.ruleset_name == "rdfs-full"

    def test_timeout_propagates(self):
        from repro.core.engine import MaterializationTimeout
        from repro.datasets.bsbm import bsbm_like

        store = Store(bsbm_like(500), timeout_seconds=1e-9)
        with pytest.raises(MaterializationTimeout):
            store.materialize()

    def test_timeout_bounds_deletion_rebuild(self):
        from repro.core.engine import InferrayEngine, MaterializationTimeout

        engine = InferrayEngine("rdfs-default")
        engine.load_triples(DATA)
        engine.materialize()
        with pytest.raises(MaterializationTimeout):
            engine.retract_and_rematerialize(
                [DATA[-1]], timeout_seconds=1e-12
            )
