"""Regression tests: every corruption class raises its structured error.

One test per damage class — bad magic, truncation (header, table,
asserted, section, whole-payload), checksum mismatch per blob kind,
unsupported version, malformed/hostile headers — each asserting the
specific :class:`StoreCorruptionError` subclass, the named section,
and the byte offset.  Raw ``struct.error`` / ``json.JSONDecodeError``
/ ``KeyError`` escaping the loader is itself a bug these tests pin.
"""

import json
import struct
import zlib

import pytest

from repro.core.store_api import (
    STORE_MAGIC,
    Store,
    StoreChecksumError,
    StoreCorruptionError,
    StoreFormatError,
    StoreMagicError,
    StoreTruncationError,
    StoreVersionError,
)
from repro.rdf.terms import IRI, Triple
from repro.rdf.vocabulary import RDF, RDFS


def ex(name):
    return IRI(f"ex:{name}")


DATA = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
]


@pytest.fixture
def saved(tmp_path):
    path = str(tmp_path / "store.bin")
    store = Store(DATA)
    store.materialize()
    store.save(path)
    return path


def read_file(path):
    with open(path, "rb") as handle:
        return handle.read()


def write_file(path, blob):
    with open(path, "wb") as handle:
        handle.write(blob)


def split_file(path):
    """(header dict, header byte span, body bytes) of a store file."""
    blob = read_file(path)
    offset = len(STORE_MAGIC)
    (header_len,) = struct.unpack("<I", blob[offset : offset + 4])
    body_start = offset + 4 + header_len
    header = json.loads(blob[offset + 4 : body_start].decode("utf-8"))
    return header, (offset + 4, body_start), blob


def reassemble(path, header, body):
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    write_file(
        path,
        STORE_MAGIC + struct.pack("<I", len(payload)) + payload + body,
    )


class TestMagic:
    def test_wrong_magic(self, saved):
        blob = read_file(saved)
        write_file(saved, b"NOT-A-STORE!" + blob[len(STORE_MAGIC) :])
        with pytest.raises(StoreMagicError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "magic"
        assert excinfo.value.offset == 0

    def test_empty_file(self, saved):
        write_file(saved, b"")
        with pytest.raises(StoreMagicError):
            Store.load(saved)


class TestTruncation:
    def test_cut_inside_header_length(self, saved):
        write_file(saved, read_file(saved)[: len(STORE_MAGIC) + 2])
        with pytest.raises(StoreTruncationError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header length"
        assert excinfo.value.offset == len(STORE_MAGIC)

    def test_cut_inside_header(self, saved):
        write_file(saved, read_file(saved)[: len(STORE_MAGIC) + 4 + 10])
        with pytest.raises(StoreTruncationError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header"

    def test_cut_inside_body_is_located(self, saved):
        header, (_, body_start), blob = split_file(saved)
        write_file(saved, blob[: body_start + 4])
        with pytest.raises(StoreTruncationError) as excinfo:
            Store.load(saved)
        # The v4 whole-payload check fires first and names the spot.
        assert excinfo.value.section == "payload"
        assert excinfo.value.offset == body_start

    def test_cut_body_without_payload_decl_names_section(self, saved):
        # Strip the v4 total-length field: the per-section reads must
        # still locate the damage precisely (the pre-v4 path).
        header, (_, body_start), blob = split_file(saved)
        del header["payload_bytes"]
        reassemble(saved, header, blob[body_start : body_start + 4])
        with pytest.raises(StoreTruncationError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section.startswith("table pid=")
        assert excinfo.value.offset is not None

    def test_missing_asserted_tail(self, saved):
        header, (_, body_start), blob = split_file(saved)
        del header["payload_bytes"]
        table_bytes = sum(
            int(e.get("n_bytes", int(e.get("n_values", 0)) * 8))
            for e in header["tables"]
        )
        reassemble(
            saved, header, blob[body_start : body_start + table_bytes]
        )
        with pytest.raises(StoreTruncationError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "asserted"


class TestChecksums:
    def corrupt_body_byte(self, saved, index):
        _, (_, body_start), blob = split_file(saved)
        corrupted = bytearray(blob)
        corrupted[body_start + index] ^= 0xFF
        write_file(saved, bytes(corrupted))

    def test_flipped_table_byte(self, saved):
        self.corrupt_body_byte(saved, 0)
        with pytest.raises(StoreChecksumError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section.startswith("table pid=")
        assert "crc32" in str(excinfo.value)

    def test_flipped_asserted_byte(self, saved):
        header, (_, body_start), blob = split_file(saved)
        table_bytes = sum(
            int(e.get("n_bytes", int(e.get("n_values", 0)) * 8))
            for e in header["tables"]
        )
        self.corrupt_body_byte(saved, table_bytes)
        with pytest.raises(StoreChecksumError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "asserted"

    def test_flipped_section_byte(self, tmp_path):
        # A hybrid store carries a litemat section; flip its tail.
        path = str(tmp_path / "hybrid.bin")
        store = Store(DATA, materialize="hybrid")
        store.materialize()
        store.save(path)
        blob = bytearray(read_file(path))
        blob[-1] ^= 0xFF
        write_file(path, bytes(blob))
        with pytest.raises(StoreChecksumError) as excinfo:
            Store.load(path)
        assert excinfo.value.section == "section 'litemat'"

    def test_lying_checksum_in_header(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["tables"][0]["crc32"] = (
            header["tables"][0]["crc32"] ^ 0xDEADBEEF
        ) & 0xFFFFFFFF
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreChecksumError):
            Store.load(saved)


class TestVersionAndHeader:
    def test_future_version(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["version"] = 99
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreVersionError) as excinfo:
            Store.load(saved)
        assert "99" in str(excinfo.value)

    def test_header_not_json(self, saved):
        _, (header_start, body_start), blob = split_file(saved)
        garbage = b"\xff" * (body_start - header_start)
        write_file(
            saved, blob[:header_start] + garbage + blob[body_start:]
        )
        with pytest.raises(StoreCorruptionError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header"

    def test_header_not_an_object(self, saved):
        _, (_, body_start), blob = split_file(saved)
        reassemble_raw = json.dumps([1, 2, 3]).encode("utf-8")
        write_file(
            saved,
            STORE_MAGIC
            + struct.pack("<I", len(reassemble_raw))
            + reassemble_raw
            + blob[body_start:],
        )
        with pytest.raises(StoreCorruptionError, match="JSON object"):
            Store.load(saved)

    def test_missing_required_key(self, saved):
        header, (_, body_start), blob = split_file(saved)
        del header["tables"]
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreCorruptionError, match="'tables'"):
            Store.load(saved)

    def test_negative_n_asserted(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["n_asserted"] = -1
        del header["payload_bytes"]
        del header["asserted_crc32"]
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreCorruptionError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "asserted"

    def test_hostile_header_field_types(self, saved):
        # A header field of the wrong type must surface as corruption,
        # not a raw TypeError from deep inside the loader.
        header, (_, body_start), blob = split_file(saved)
        header["tables"] = "not-a-list"
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreCorruptionError):
            Store.load(saved)

    def test_corrupt_term_records(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["resource_terms"][0] = ["bogus-term-kind"]
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreCorruptionError) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header"

    # No header field is checksummed: a misspelt mode or ruleset is
    # corruption, not a bad configuration argument.
    def test_materialize_outside_its_domain(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["materialize"] = "fulm"
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreCorruptionError, match="'fulm'") as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header"

    def test_ruleset_outside_its_domain(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["ruleset"] = "rdfs-defaulx"
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(
            StoreCorruptionError, match="'rdfs-defaulx'"
        ) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header"

    # bool("false") is True: a non-boolean flag must not load as a
    # complete closure served without inference.
    @pytest.mark.parametrize("flag", ["false", "yes", 0.5, 0, 1, None])
    def test_materialized_not_a_json_boolean(self, saved, flag):
        header, (_, body_start), blob = split_file(saved)
        header["materialized"] = flag
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(
            StoreCorruptionError, match="'materialized'"
        ) as excinfo:
            Store.load(saved)
        assert excinfo.value.section == "header"

    def test_unknown_table_encoding_still_format_error(self, saved):
        header, (_, body_start), blob = split_file(saved)
        header["tables"][0]["encoding"] = "zstd-9000"
        reassemble(saved, header, blob[body_start:])
        with pytest.raises(StoreFormatError, match="encoding"):
            Store.load(saved)


class TestErrorHierarchy:
    def test_all_corruption_errors_are_format_and_value_errors(self):
        for cls in (
            StoreMagicError,
            StoreTruncationError,
            StoreChecksumError,
            StoreVersionError,
        ):
            assert issubclass(cls, StoreCorruptionError)
            assert issubclass(cls, StoreFormatError)
            assert issubclass(cls, ValueError)

    def test_attributes_carried(self):
        error = StoreChecksumError("boom", section="asserted", offset=17)
        assert error.section == "asserted"
        assert error.offset == 17
