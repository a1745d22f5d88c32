"""repro — reproduction of "Inferray: fast in-memory RDF inference" (VLDB'16).

Public API
----------

The common entry points are re-exported here:

* :class:`Store` — the unified facade: lazy materialization on
  add/remove, snapshot-isolated reads, one ``query()`` entry point
  (pattern / BGP string / :class:`TriplePattern` list) and
  ``save()`` / ``Store.load()`` persistence.
* :class:`InferrayEngine` — the forward-chaining reasoner (Algorithm 1)
  the Store drives.
* :mod:`repro.rdf` — terms, vocabularies, N-Triples I/O.
* :mod:`repro.rules` — the Table-5 catalogue and ruleset selections.
* :mod:`repro.baselines` — comparator engines (hash-join, RETE, naive).
* :mod:`repro.datasets` — benchmark workload generators.
* :mod:`repro.memsim` — the live-store bytes/triple probe.

Quickstart::

    from repro import Store
    from repro.rdf import iri, Triple, RDF, RDFS

    store = Store([
        Triple(iri("ex:human"), RDFS.subClassOf, iri("ex:mammal")),
        Triple(iri("ex:Bart"), RDF.type, iri("ex:human")),
    ])
    assert Triple(iri("ex:Bart"), RDF.type, iri("ex:mammal")) in store
    for solution in store.query("?who a ex:mammal"):
        print(solution["who"])
    store.save("closure.store")            # reload later in O(read)
"""

from .core.engine import (
    FixedPointError,
    InferrayEngine,
    MaterializationStats,
    MaterializationTimeout,
)
from .core.store_api import (
    Snapshot,
    Store,
    StoreChecksumError,
    StoreConfig,
    StoreCorruptionError,
    StoreFormatError,
    StoreMagicError,
    StoreTruncationError,
    StoreVersionError,
    is_store_file,
)
from .query.bgp import Query, TriplePattern, Var, parse_bgp
from .rules.rulesets import RULESET_NAMES

__version__ = "1.2.0"

__all__ = [
    "FixedPointError",
    "InferrayEngine",
    "MaterializationStats",
    "MaterializationTimeout",
    "Query",
    "RULESET_NAMES",
    "Snapshot",
    "Store",
    "StoreChecksumError",
    "StoreConfig",
    "StoreCorruptionError",
    "StoreFormatError",
    "StoreMagicError",
    "StoreTruncationError",
    "StoreVersionError",
    "TriplePattern",
    "Var",
    "__version__",
    "is_store_file",
    "parse_bgp",
]
