"""Regenerate the golden store-format fixtures in this directory.

Run from the repository root::

    PYTHONPATH=src python tests/fixtures/stores/generate.py

Produces one file per format version — ``v1.store`` (raw tables,
pre-hybrid header), ``v2.store`` (raw tables + hybrid
``materialize``/``sections`` fields), ``v3.store`` (compressed ``crp1``
tables), ``v4.store`` (the current writer's output, checksums and all)
— plus ``golden.nt``, the closure every fixture must load to.  Each
older fixture is written by the current (v4) ``Store.save`` and then
header-downgraded exactly the way the corresponding older writer laid
the file out: version pinned, checksum/total-length fields stripped,
and (for v1) the hybrid fields removed.  The body bytes are untouched,
which is what makes the committed fixtures byte-stable regression
anchors for the v4 reader's backward-compatibility paths.  ``v4.store``
asserts one triple twice (``V4_DATA``), so it also pins the asserted
section's layout: load order, duplicates kept.

The fixtures are committed; regenerate only when the *dictionary* or
*term* encoding changes (which is itself a format break and needs a
version bump).
"""

import json
import os
import struct
import sys

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.abspath(__file__)), "..", "..", "..", "src"
    ),
)

from repro.core.store_api import STORE_MAGIC, Store  # noqa: E402
from repro.rdf.terms import IRI, Literal, Triple  # noqa: E402
from repro.rdf.vocabulary import RDF, RDFS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def ex(name):
    return IRI(f"http://example.org/{name}")


DATA = [
    Triple(ex("human"), RDFS.subClassOf, ex("mammal")),
    Triple(ex("mammal"), RDFS.subClassOf, ex("animal")),
    Triple(ex("hasPet"), RDFS.domain, ex("human")),
    Triple(ex("hasPet"), RDFS.range, ex("animal")),
    Triple(ex("Bart"), RDF.type, ex("human")),
    Triple(ex("Bart"), ex("hasPet"), ex("SantasLittleHelper")),
    Triple(ex("Lisa"), RDFS.label, Literal("Lisa")),
]

#: ``DATA`` with Bart's type asserted a second time, last.
V4_DATA = DATA + [DATA[4]]

CHECKSUM_KEYS = ("asserted_crc32", "payload_bytes")
TABLE_CHECKSUM_KEYS = ("crc32",)


def downgrade(path, version, *, pre_hybrid=False):
    """Rewrite ``path``'s header the way the ``version`` writer did."""
    with open(path, "rb") as handle:
        blob = handle.read()
    offset = len(STORE_MAGIC)
    (header_len,) = struct.unpack("<I", blob[offset : offset + 4])
    body_start = offset + 4 + header_len
    header = json.loads(blob[offset + 4 : body_start].decode("utf-8"))
    header["version"] = version
    for key in CHECKSUM_KEYS:
        header.pop(key, None)
    for entry in header["tables"]:
        for key in TABLE_CHECKSUM_KEYS:
            entry.pop(key, None)
    for entry in header.get("sections", ()):
        entry.pop("crc32", None)
    if pre_hybrid:
        header.pop("materialize", None)
        header.pop("sections", None)
    payload = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as handle:
        handle.write(STORE_MAGIC)
        handle.write(struct.pack("<I", len(payload)))
        handle.write(payload)
        handle.write(blob[body_start:])


def main():
    golden = Store(DATA, backend="python")
    golden.materialize()
    lines = sorted(t.n3() for t in golden.triples())
    with open(os.path.join(HERE, "golden.nt"), "w") as handle:
        handle.write("\n".join(lines) + "\n")

    v1 = os.path.join(HERE, "v1.store")
    store = Store(DATA, backend="python")
    store.materialize()
    store.save(v1)
    downgrade(v1, 1, pre_hybrid=True)

    v2 = os.path.join(HERE, "v2.store")
    store = Store(DATA, backend="python")
    store.materialize()
    store.save(v2)
    downgrade(v2, 2)

    v3 = os.path.join(HERE, "v3.store")
    store = Store(DATA, backend="compressed")
    store.materialize()
    store.save(v3)
    downgrade(v3, 3)

    v4 = os.path.join(HERE, "v4.store")
    store = Store(V4_DATA, backend="python")
    store.materialize()
    store.save(v4)

    for name in ("golden.nt", "v1.store", "v2.store", "v3.store", "v4.store"):
        path = os.path.join(HERE, name)
        print(f"{name}: {os.path.getsize(path)} bytes")


if __name__ == "__main__":
    main()
