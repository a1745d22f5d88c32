"""Golden-fixture tests: the v4 reader loads every format version.

``tests/fixtures/stores/`` commits one file per format version (see
``generate.py`` there).  Loading each under the current reader must
produce the closure in ``golden.nt`` *byte-identically* (same sorted
N-Triples serialization) and without re-running inference — the
backward-compatibility contract a version bump must not break.  The
v4 fixture is the current writer's own output, so re-saving it must
reproduce it byte for byte.
"""

import importlib.util
import json
import os
import struct

import pytest

from repro.core.store_api import (
    STORE_MAGIC,
    STORE_FORMAT_VERSION,
    Store,
    is_store_file,
)

FIXTURES = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "fixtures",
    "stores",
)

VERSIONS = {
    "v1.store": 1,
    "v2.store": 2,
    "v3.store": 3,
}


def fixture(name):
    return os.path.join(FIXTURES, name)


def fixture_data():
    """The triples ``generate.py`` wrote ``v4.store`` from."""
    spec = importlib.util.spec_from_file_location(
        "store_fixture_generator", fixture("generate.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.V4_DATA


BACKENDS = ["python", "compressed", "numpy"]


def file_header(path):
    with open(path, "rb") as handle:
        blob = handle.read()
    offset = len(STORE_MAGIC)
    (header_len,) = struct.unpack("<I", blob[offset : offset + 4])
    return json.loads(
        blob[offset + 4 : offset + 4 + header_len].decode("utf-8")
    )


@pytest.fixture(scope="module")
def golden_lines():
    with open(fixture("golden.nt")) as handle:
        return handle.read().splitlines()


class TestGoldenFixtures:
    @pytest.mark.parametrize("name", sorted(VERSIONS))
    def test_fixture_is_pinned_to_its_version(self, name):
        header = file_header(fixture(name))
        assert header["version"] == VERSIONS[name]
        # Pre-v4 headers carry no integrity fields — that absence IS
        # the fixture: it exercises the reader's no-checksum path.
        assert "asserted_crc32" not in header
        assert "payload_bytes" not in header
        assert all("crc32" not in e for e in header["tables"])

    @pytest.mark.parametrize("name", sorted(VERSIONS))
    def test_loads_byte_identical_to_golden(self, name, golden_lines):
        path = fixture(name)
        assert is_store_file(path)
        with Store.load(path) as store:
            loaded = sorted(t.n3() for t in store.triples())
            assert loaded == golden_lines
            # No inference re-ran: the fixture was saved materialized.
            assert store.engine.stats is None

    @pytest.mark.parametrize("name", sorted(VERSIONS))
    def test_loads_on_every_backend(self, name, golden_lines):
        for backend in BACKENDS:
            with Store.load(fixture(name), backend=backend) as store:
                assert sorted(t.n3() for t in store.triples()) == golden_lines

    def test_v1_is_pre_hybrid_shaped(self):
        header = file_header(fixture("v1.store"))
        assert "materialize" not in header
        assert "sections" not in header

    def test_v3_uses_compressed_tables(self):
        header = file_header(fixture("v3.store"))
        assert any(
            entry.get("encoding") == "crp1" for entry in header["tables"]
        )

    def test_resave_upgrades_to_current_version(self, tmp_path, golden_lines):
        # Load-old / save-new is the upgrade path: the rewritten file
        # must be v4 (checksummed) and still hold the same closure.
        for name in sorted(VERSIONS):
            upgraded = str(tmp_path / f"up-{name}")
            with Store.load(fixture(name)) as store:
                store.save(upgraded)
            header = file_header(upgraded)
            assert header["version"] == STORE_FORMAT_VERSION
            assert "asserted_crc32" in header
            with Store.load(upgraded) as store:
                assert sorted(t.n3() for t in store.triples()) == golden_lines


class TestV4Fixture:
    def test_is_a_current_checksummed_file(self):
        header = file_header(fixture("v4.store"))
        assert header["version"] == 4
        assert "asserted_crc32" in header and "payload_bytes" in header

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_loads_with_the_duplicate_in_load_order(
        self, backend, golden_lines
    ):
        data = fixture_data()
        assert data[-1] in data[:-1]  # the duplicated assertion
        with Store.load(fixture("v4.store"), backend=backend) as store:
            assert sorted(t.n3() for t in store.triples()) == golden_lines
            assert store.engine.stats is None
            engine = store.engine
            assert list(engine.asserted_column) == [
                engine.dictionary.ids_of(triple) for triple in data
            ]
            assert store.n_asserted == len(data)
            assert store.asserted() == list(dict.fromkeys(data))

    @pytest.mark.parametrize(
        "backend", [b for b in BACKENDS if b != "compressed"]
    )
    def test_resave_is_byte_identical(self, backend, tmp_path):
        # Raw-table backends only: a compressed store writes crp1
        # tables (test_resave_upgrades_to_current_version covers it).
        resaved = str(tmp_path / "resaved.store")
        with Store.load(fixture("v4.store"), backend=backend) as store:
            store.save(resaved)
        with open(fixture("v4.store"), "rb") as original:
            with open(resaved, "rb") as copy:
                assert copy.read() == original.read()
