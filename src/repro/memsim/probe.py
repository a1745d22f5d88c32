"""Live-store resident-memory probe: measured bytes/triple.

The Figure 7–8 cache simulator (``benchmarks/paper/memsim``) *replays*
recorded address traces against modelled hierarchies.  This module
instead measures the **actual** resident footprint of a live store — the committed pair
arrays plus any materialized ⟨o, s⟩ caches — through the kernel
backends' :meth:`~repro.kernels.base.KernelBackend.flat_nbytes`
accounting hook.  One shared identity set deduplicates storage aliased
across tables, versions and snapshots (copy-on-write views, shared
compressed blocks), so the report is the bytes the process would free
if the store went away, not a naive per-view sum.

This is the instrument behind the full-vs-compressed memory curves in
``benchmarks/bench_fig7_memory_closure.py``: the flat backends sit at
16 bytes/pair per array by construction, the compressed backend's
figure is whatever its delta blocks actually occupy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

__all__ = ["StoreMemoryReport", "TableMemory", "measure_store"]


@dataclass(frozen=True)
class TableMemory:
    """Footprint of one property table."""

    property_id: int
    n_pairs: int
    resident_bytes: int
    has_os_cache: bool


@dataclass(frozen=True)
class StoreMemoryReport:
    """Resident footprint of one store's committed closure.

    ``resident_bytes`` is the deduplicated total across every table's
    committed ⟨s, o⟩ array and materialized ⟨o, s⟩ cache;
    ``flat_bytes`` is what the *same* arrays would occupy in the flat
    16-bytes-per-pair encoding (the baseline the compression ratio is
    against); ``bytes_per_triple`` divides by the closure size.
    """

    backend: str
    inner_backend: Optional[str]
    n_triples: int
    n_tables: int
    resident_bytes: int
    flat_bytes: int
    tables: Tuple[TableMemory, ...]

    @property
    def bytes_per_triple(self) -> float:
        if self.n_triples == 0:
            return 0.0
        return self.resident_bytes / self.n_triples

    @property
    def compression_ratio(self) -> float:
        """Flat-encoding bytes over resident bytes (>1 = smaller)."""
        if self.resident_bytes == 0:
            return 1.0
        return self.flat_bytes / self.resident_bytes

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready view (bench reports)."""
        return {
            "backend": self.backend,
            "inner_backend": self.inner_backend,
            "n_triples": self.n_triples,
            "n_tables": self.n_tables,
            "resident_bytes": self.resident_bytes,
            "flat_bytes": self.flat_bytes,
            "bytes_per_triple": round(self.bytes_per_triple, 3),
            "compression_ratio": round(self.compression_ratio, 3),
        }


def _resolve_tables(target):
    """(TripleStore, kernels) from a Store / Snapshot / engine / store."""
    engine = getattr(target, "engine", None)
    if engine is not None:  # repro.Store (flushes pending mutations)
        target = engine
    main = getattr(target, "main", None)
    if main is not None:  # InferrayEngine
        return main, target.kernels
    view = getattr(target, "_tables", None)
    if view is not None and hasattr(target, "_dictionary"):  # Snapshot
        return view, view.kernels
    if hasattr(target, "table_arrays"):  # TripleStore
        return target, target.kernels
    raise TypeError(
        f"measure_store() wants a Store, Snapshot, InferrayEngine or "
        f"TripleStore, got {type(target).__name__}"
    )


def measure_store(target) -> StoreMemoryReport:
    """Measure the resident footprint of a live store's closure.

    Accepts a :class:`repro.Store` (pending mutations are flushed
    first, so the measurement is of a complete closure), a
    :class:`~repro.core.store_api.Snapshot`, an
    :class:`~repro.core.engine.InferrayEngine` or a bare
    :class:`~repro.store.triple_store.TripleStore`.
    """
    if hasattr(target, "materialize") and hasattr(target, "stale"):
        target.materialize()  # repro.Store: measure a complete closure
    tables, kernels = _resolve_tables(target)
    seen: set = set()
    per_table: List[TableMemory] = []
    total = 0
    flat_total = 0
    n_triples = 0
    for property_id in sorted(tables._tables):
        table = tables._tables[property_id]
        if not table:
            continue
        resident = table.memory_bytes(seen)
        total += resident
        n_pairs = table.n_pairs
        n_triples += n_pairs
        flat_total += 16 * n_pairs * (2 if table.has_os_cache else 1)
        per_table.append(
            TableMemory(
                property_id=property_id,
                n_pairs=n_pairs,
                resident_bytes=resident,
                has_os_cache=table.has_os_cache,
            )
        )
    return StoreMemoryReport(
        backend=kernels.name,
        inner_backend=getattr(kernels, "inner_name", None),
        n_triples=n_triples,
        n_tables=len(per_table),
        resident_bytes=total,
        flat_bytes=flat_total,
        tables=tuple(per_table),
    )
