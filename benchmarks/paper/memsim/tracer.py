"""Tracer protocol: engines report memory-access *operations*.

The paper measures hardware counters (cache/TLB misses, page faults)
with ``perf``.  A pure-Python reproduction cannot observe the hardware,
so engines instead report their data-structure operations at the level
where the access *pattern* is decided:

* ``sequential_scan(region, n_bytes)`` — a streaming pass over a flat
  array region (Inferray's property-table scans, sorts and merges);
* ``random_access(region, n)`` — n independent uniformly-spread probes
  into a region (hash-table lookups/inserts);
* ``pointer_chase(region, n_hops)`` — n dependent object-to-object hops
  (RETE tokens, statement lists, graph nodes);
* ``alloc(region, n_bytes)`` — the region grew (heap allocation).

A :class:`RecordingTracer` stores these ops; the
:class:`paper.memsim.hierarchy.MemoryHierarchy` replays them through a
simulated L1d/LLC/TLB/page hierarchy, turning patterns into the
counters of Figures 7–8.  One op per *operation* (not per element)
keeps tracing overhead negligible in the engines' hot loops.
"""

from __future__ import annotations

from typing import Hashable, List, Tuple

#: A recorded operation: (kind, region, amount).
TraceOp = Tuple[str, Hashable, int]

SEQ = "seq"
RAND = "rand"
CHASE = "chase"
ALLOC = "alloc"


class RecordingTracer:
    """Accumulates trace operations for later replay."""

    __slots__ = ("ops",)

    def __init__(self) -> None:
        self.ops: List[TraceOp] = []

    def sequential_scan(self, region: Hashable, n_bytes: int) -> None:
        """A streaming scan of ``n_bytes`` from the region's start."""
        if n_bytes > 0:
            self.ops.append((SEQ, region, n_bytes))

    def random_access(self, region: Hashable, n_accesses: int = 1) -> None:
        """``n_accesses`` independent probes spread over the region."""
        if n_accesses > 0:
            self.ops.append((RAND, region, n_accesses))

    def pointer_chase(self, region: Hashable, n_hops: int = 1) -> None:
        """``n_hops`` dependent object-graph hops inside the region."""
        if n_hops > 0:
            self.ops.append((CHASE, region, n_hops))

    def alloc(self, region: Hashable, n_bytes: int) -> None:
        """The region grew by ``n_bytes`` (no accesses implied)."""
        if n_bytes > 0:
            self.ops.append((ALLOC, region, n_bytes))

    def clear(self) -> None:
        """Drop all recorded operations."""
        self.ops.clear()

    def __len__(self) -> int:
        return len(self.ops)
