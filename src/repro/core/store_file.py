"""The serialized-store file format: one writer, one reader.

:func:`write_store` puts an engine's state on disk and
:func:`read_store` gets it back; nothing outside this module knows the
layout.  A file is the magic bytes, a little-endian ``uint32`` header
length, a JSON header, then the blobs the header describes, in order:
one per property table, the asserted id triples, and any named
sections.  The golden files under ``tests/fixtures/stores/`` pin every
version this build reads.  The file reaches disk through
:func:`repro.durable.write_atomically`, the one atomic replace in the
package.

The v4 header's scalar-sort key once named the engine's pair sort; the
sort is now fixed per kernel backend, so the writer always puts
``"auto"`` there (files stay byte-identical and readable by older
builds) and the reader ignores whatever a file says.  The v1–v3
readers are kept only while the golden fixtures remain the cheapest
proof that v4 is right.
"""

from __future__ import annotations

import io
import json
import struct
import warnings
import zlib
from typing import Dict, List, Optional, Tuple

from .. import durable
from ..dictionary.encoding import Dictionary
from ..dictionary.triple_column import TripleColumn
from ..rdf.terms import term_from_record, term_to_record
from ..rules.rulesets import RULESET_NAMES
from .engine import MATERIALIZE_MODES

#: Magic bytes opening every serialized store file.
STORE_MAGIC = b"REPRO-STORE\x00"

#: Current on-disk format version.  Version 2 added the
#: ``"materialize"`` header key and the optional ``"sections"`` list
#: (named blobs appended after the asserted data — readers skip
#: sections they do not recognize, with a warning, so the section
#: mechanism is forward-compatible).  Version-1 files still load and
#: are treated as full-mode stores.  Version 3 adds per-table
#: ``"encoding": "crp1"`` entries: a compressed-backend store writes
#: its delta-encoded block streams verbatim (``n_bytes`` encoded bytes
#: instead of ``n_values * 8`` raw ones), so a compressed closure
#: reloads in O(compressed read) with its blocks intact.  Version 4
#: adds integrity metadata: a ``"crc32"`` on every table and section
#: entry, an ``"asserted_crc32"``, and the total ``"payload_bytes"``
#: after the header — the reader verifies each blob against its
#: checksum and fails with a :class:`StoreChecksumError` naming the
#: blob and its file offset instead of loading silently corrupted
#: data.  Versions 1–3 (no checksums) still load unchanged.
STORE_FORMAT_VERSION = 4

#: On-disk format versions this build reads.
_SUPPORTED_VERSIONS = (1, 2, 3, 4)


class StoreFormatError(ValueError):
    """Raised when a file is not a readable serialized store."""


class StoreCorruptionError(StoreFormatError):
    """A store file is damaged (as opposed to merely incompatible).

    ``section`` names the part of the file that failed (for example
    ``"header"``, ``"table pid=7"``, ``"asserted"``, or
    ``"section 'litemat'"``) and ``offset`` is the byte position where
    the damage was detected, when known.  Both are folded into the
    message and kept as attributes for programmatic use.
    """

    def __init__(
        self,
        message: str,
        *,
        section: Optional[str] = None,
        offset: Optional[int] = None,
    ) -> None:
        detail = message
        if section is not None:
            detail = f"{detail} [section: {section}]"
        if offset is not None:
            detail = f"{detail} [offset: {offset}]"
        super().__init__(detail)
        self.section = section
        self.offset = offset


class StoreMagicError(StoreCorruptionError):
    """The file does not start with the store magic bytes."""


class StoreTruncationError(StoreCorruptionError):
    """The file ends before a declared blob is complete."""


class StoreChecksumError(StoreCorruptionError):
    """A blob's CRC32 does not match its header entry (v4 files)."""


class StoreVersionError(StoreCorruptionError):
    """The file declares a format version this build cannot read."""


def is_store_file(path: str) -> bool:
    """Whether ``path`` starts with the serialized-store magic bytes."""
    try:
        with open(path, "rb") as handle:
            return handle.read(len(STORE_MAGIC)) == STORE_MAGIC
    except OSError:
        return False


# ----------------------------------------------------------------------
# Writing
# ----------------------------------------------------------------------
def write_store(engine, path: str) -> int:
    """Serialize ``engine``'s state to ``path``; returns bytes written.

    The file holds the dictionary's term lists plus every property's
    committed (sorted-unique) pair array and the asserted id triples,
    so :func:`read_store` restores the closure in O(read) without
    re-running inference.

    The write is crash-safe (:func:`repro.durable.write_atomically`):
    a crash at any point leaves either the previous file intact or the
    complete new one — never a torn mix.  Every blob carries a CRC32
    in the header (format v4) that :func:`read_store` verifies.
    """
    property_terms, resource_terms = engine.dictionary.term_lists()
    table_entries = []
    blobs: List[bytes] = []
    for property_id, flat in engine.main.table_arrays():
        entry = {"pid": property_id, "n_values": len(flat)}
        serialize = getattr(flat, "serialize", None)
        if serialize is not None:
            # Compressed backend: store the self-describing block
            # stream verbatim — reload costs O(compressed read) and
            # the encoded blocks survive the round trip unchanged.
            blob = serialize()
            entry["encoding"] = "crp1"
            entry["n_bytes"] = len(blob)
        else:
            blob = _flat_to_le_bytes(flat)
        entry["crc32"] = zlib.crc32(blob)
        table_entries.append(entry)
        blobs.append(blob)
    blobs.append(_flat_to_le_bytes(engine.asserted_column.flat))
    asserted_crc32 = zlib.crc32(blobs[-1])
    # "materialize" records what the stored *tables* represent: a
    # hybrid flush that fell back to the full catalogue stores the
    # complete closure, so its file is a full-mode file.
    hybrid_state = engine.hybrid_state_payload()
    sections: List[dict] = []
    if hybrid_state is not None:
        blob = json.dumps(hybrid_state, separators=(",", ":")).encode("utf-8")
        sections.append(
            {
                "name": "litemat",
                "n_bytes": len(blob),
                "crc32": zlib.crc32(blob),
            }
        )
        blobs.append(blob)
    header = {
        "format": "repro-store",
        "version": STORE_FORMAT_VERSION,
        "ruleset": engine.ruleset_name,
        "algorithm": "auto",
        "materialized": engine.is_materialized,
        "materialize": "hybrid" if hybrid_state is not None else "full",
        "n_triples": engine.n_triples,
        "property_terms": [term_to_record(t) for t in property_terms],
        "resource_terms": [term_to_record(t) for t in resource_terms],
        "tables": table_entries,
        "n_asserted": len(engine.asserted_column),
        "asserted_crc32": asserted_crc32,
        "payload_bytes": sum(len(blob) for blob in blobs),
        "sections": sections,
    }
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    return durable.write_atomically(
        path, [STORE_MAGIC, struct.pack("<I", len(payload)), payload, *blobs]
    )


def _flat_to_le_bytes(flat) -> bytes:
    """A flat int64 sequence as little-endian bytes (any backend)."""
    import numpy as np

    return np.asarray(flat, dtype="<i8").tobytes()


# ----------------------------------------------------------------------
# Reading
# ----------------------------------------------------------------------
def read_store(
    path: str,
) -> Tuple[dict, Dictionary, list, TripleColumn, Dict[str, dict]]:
    """Parse the store file at ``path``:
    (header, dictionary, [(pid, flat)…], asserted column, {name: payload}).

    ``header`` is the file's metadata (``"ruleset"``,
    ``"materialized"``, ``"materialize"`` on v2+ files); each ``flat``
    is sorted-unique on ⟨s, o⟩ exactly as written.

    Optional header sections the build does not recognize are skipped
    with a warning (their byte length is in the header), so files from
    newer writers degrade gracefully instead of failing to load.

    Every failure surfaces as a :class:`StoreCorruptionError` subclass
    naming the damaged section and its byte offset — raw
    ``struct.error`` / ``json.JSONDecodeError`` / ``KeyError`` from a
    malformed file never escape.
    """
    with open(path, "rb") as handle:
        header, offset = _read_header(handle)
        try:
            body = _read_body(handle, header, offset)
        except StoreFormatError:
            raise
        except (
            AttributeError,
            KeyError,
            TypeError,
            ValueError,
            struct.error,
        ) as error:
            # A hostile or damaged header can make any body field the
            # wrong type or shape; surface it as corruption, located at
            # least to the body, instead of leaking the raw error.
            raise StoreCorruptionError(
                f"malformed store header field: {error!r}",
                section="header",
                offset=offset,
            ) from error
    try:
        dictionary = Dictionary.from_term_lists(
            [term_from_record(r) for r in header["property_terms"]],
            [term_from_record(r) for r in header["resource_terms"]],
        )
    except (KeyError, TypeError, ValueError, IndexError) as error:
        raise StoreCorruptionError(
            f"corrupt dictionary term records: {error!r}",
            section="header",
        ) from error
    return (header, dictionary) + body


#: Header keys every readable store file (v1+) must carry.
_REQUIRED_HEADER_KEYS = (
    "ruleset",
    "materialized",
    "property_terms",
    "resource_terms",
    "tables",
    "n_asserted",
)

#: The values a header's named fields may take: a ruleset name (or
#: ``"custom"``, written for an unnamed rule list) and, on v2+ files,
#: the entailment mode.
_HEADER_DOMAINS = (
    ("ruleset", RULESET_NAMES + ("custom",)),
    ("materialize", MATERIALIZE_MODES),
)


def _read_blob(
    handle, n_bytes: int, section: str, offset: int, entry=None,
    crc_key: str = "crc32",
) -> bytes:
    """Read exactly ``n_bytes`` or raise a located truncation error,
    then verify the blob against ``entry[crc_key]`` when one is present.

    v1–v3 files carry no checksums; their entries simply lack the key
    and are accepted as-is.  Header-only rewrites (version downgrades,
    extra sections) leave blob checksums valid, so presence — not the
    declared version — gates verification.
    """
    blob = handle.read(n_bytes)
    if len(blob) != n_bytes:
        raise StoreTruncationError(
            f"truncated store file: {section} declares {n_bytes} bytes "
            f"but only {len(blob)} remain",
            section=section,
            offset=offset,
        )
    expected = entry.get(crc_key) if isinstance(entry, dict) else None
    if expected is not None and zlib.crc32(blob) != expected:
        raise StoreChecksumError(
            f"checksum mismatch in {section}: stored crc32={expected}, "
            f"computed crc32={zlib.crc32(blob)}",
            section=section,
            offset=offset,
        )
    return blob


def _read_header(handle: io.BufferedIOBase) -> Tuple[dict, int]:
    """The validated JSON header and the offset of the first blob."""
    magic = handle.read(len(STORE_MAGIC))
    if magic != STORE_MAGIC:
        raise StoreMagicError(
            "not a repro store file (bad magic)", section="magic", offset=0
        )
    offset = len(STORE_MAGIC)
    length_bytes = _read_blob(handle, 4, "header length", offset)
    (header_len,) = struct.unpack("<I", length_bytes)
    offset += 4
    header_bytes = _read_blob(handle, header_len, "header", offset)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise StoreCorruptionError(
            f"corrupt store header: {error}", section="header", offset=offset
        ) from error
    if not isinstance(header, dict):
        raise StoreCorruptionError(
            "corrupt store header: not a JSON object",
            section="header",
            offset=offset,
        )
    if header.get("version") not in _SUPPORTED_VERSIONS:
        raise StoreVersionError(
            f"unsupported store format version {header.get('version')!r} "
            f"(this build reads versions {_SUPPORTED_VERSIONS})",
            section="header",
            offset=offset,
        )
    for key in _REQUIRED_HEADER_KEYS:
        if key not in header:
            raise StoreCorruptionError(
                f"store header is missing required key {key!r}",
                section="header",
                offset=offset,
            )
    for key, domain in _HEADER_DOMAINS:
        if key in header and header[key] not in domain:
            raise StoreCorruptionError(
                f"store header {key!r} is {header[key]!r}, not one of "
                f"{domain}",
                section="header",
                offset=offset,
            )
    if not isinstance(header["materialized"], bool):
        # ``bool("false")`` is True: anything but a JSON boolean would
        # load as a complete closure and be served without inference.
        raise StoreCorruptionError(
            f"store header 'materialized' is {header['materialized']!r}, "
            "not a JSON boolean",
            section="header",
            offset=offset,
        )
    return header, offset + header_len


def _read_body(handle, header: dict, offset: int):
    declared = header.get("payload_bytes")
    if declared is not None:
        # Whole-payload truncation check up front, from the total
        # length v4 headers declare.  Extra trailing bytes are fine
        # (a newer writer may append sections this build skips);
        # missing bytes are not.
        position = handle.tell()
        remaining = handle.seek(0, io.SEEK_END) - position
        handle.seek(position)
        if remaining < declared:
            raise StoreTruncationError(
                f"truncated store file: header declares a "
                f"{declared}-byte payload but only {remaining} bytes "
                "remain",
                section="payload",
                offset=offset,
            )
    tables = []
    for index, entry in enumerate(header["tables"]):
        encoding = entry.get("encoding")
        section = f"table pid={entry.get('pid')}"
        if encoding == "crp1":
            n_bytes = int(entry["n_bytes"])
            blob = _read_blob(handle, n_bytes, section, offset, entry)
            tables.append((entry["pid"], _crp1_to_flat(blob, entry)))
        elif encoding is None:
            n_bytes = int(entry["n_values"]) * 8
            if n_bytes < 0:
                raise StoreCorruptionError(
                    f"negative n_values in table entry {index}",
                    section=section,
                    offset=offset,
                )
            blob = _read_blob(handle, n_bytes, section, offset, entry)
            tables.append((entry["pid"], _le_bytes_to_flat(blob)))
        else:
            raise StoreFormatError(
                f"unknown table encoding {encoding!r} (this build reads "
                "raw and 'crp1' tables)"
            )
        offset += n_bytes
    n_bytes = int(header["n_asserted"]) * 3 * 8
    if n_bytes < 0:
        raise StoreCorruptionError(
            "negative n_asserted in store header",
            section="asserted",
            offset=offset,
        )
    blob = _read_blob(
        handle, n_bytes, "asserted", offset, header, "asserted_crc32"
    )
    offset += n_bytes
    asserted = TripleColumn(_le_bytes_to_flat(blob))
    sections: Dict[str, dict] = {}
    for entry in header.get("sections", ()):
        name = entry.get("name")
        n_bytes = int(entry.get("n_bytes", 0))
        section = f"section {name!r}"
        blob = _read_blob(handle, n_bytes, section, offset, entry)
        if name == "litemat":
            try:
                sections[name] = json.loads(blob.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise StoreCorruptionError(
                    f"corrupt store section {name!r}: {error}",
                    section=section,
                    offset=offset,
                ) from error
        else:
            warnings.warn(
                f"repro store: skipping unknown optional section "
                f"{name!r} ({n_bytes} bytes); the file was probably "
                "written by a newer build",
                stacklevel=4,
            )
        offset += n_bytes
    return tables, asserted, sections


def _le_bytes_to_flat(data: bytes):
    """Little-endian bytes back to a writable host-order int64 ndarray
    (one copy)."""
    import numpy as np

    return np.frombuffer(data, dtype="<i8").astype(np.int64)


def _crp1_to_flat(blob: bytes, entry: dict):
    """A ``"crp1"`` table blob back to a :class:`CompressedPairs`.

    Deserialization rebuilds the encoded blocks exactly as written —
    a compressed-backend reader adopts them as-is (O(read) reload,
    blocks shared with nothing to re-encode); any other backend's
    ``asarray`` decodes them into its native flat type on restore.
    """
    from ..kernels.compressed_backend import CompressedPairs

    try:
        pairs = CompressedPairs.deserialize(blob)
    except ValueError as error:
        raise StoreFormatError(
            f"corrupt compressed table (pid {entry.get('pid')}): {error}"
        ) from error
    if len(pairs) != entry["n_values"]:
        raise StoreFormatError(
            f"compressed table (pid {entry.get('pid')}) decodes to "
            f"{len(pairs)} values, header says {entry['n_values']}"
        )
    return pairs
