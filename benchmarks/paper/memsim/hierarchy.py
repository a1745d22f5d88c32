"""Trace-driven memory-hierarchy simulator (the Figures-7/8 substrate).

Models the paper's testbed (Intel Xeon E3-1246v3):

* **L1d**: 32 KiB, 64-byte lines, 8-way set-associative, LRU;
* **LLC**: 8 MiB, 64-byte lines, 16-way, LRU (the L2 is omitted — the
  paper reports only L1d and LLC rates);
* **dTLB**: 64 entries, 4 KiB pages, fully associative LRU;
* **page faults**: first-touch (minor) faults over 4 KiB pages.

The simulator consumes the operation stream of a
:class:`paper.memsim.tracer.RecordingTracer` and expands each operation
into concrete addresses through an
:class:`paper.memsim.address_space.AddressSpace`.  Very long random /
chase operations are *sampled* and the counters scaled — miss rates are
statistically stable under uniform sampling (documented in DESIGN.md;
sequential scans are always simulated exactly, line by line).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from .address_space import AddressSpace
from .tracer import ALLOC, CHASE, RAND, SEQ, TraceOp

LINE_SIZE = 64
PAGE_SIZE = 4096

#: Random/chase ops longer than this are sampled down to it.
SAMPLE_CAP = 4096


class CacheSim:
    """Set-associative LRU cache over 64-byte lines."""

    def __init__(self, size_bytes: int, associativity: int,
                 line_size: int = LINE_SIZE):
        if size_bytes % (associativity * line_size) != 0:
            raise ValueError("cache size must be a multiple of way size")
        self.line_size = line_size
        self.associativity = associativity
        self.n_sets = size_bytes // (associativity * line_size)
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(self.n_sets)
        ]
        self.accesses = 0.0
        self.misses = 0.0

    def access(self, address: int, weight: float = 1.0) -> bool:
        """Touch one line; returns True on hit.  ``weight`` scales counters."""
        line = address // self.line_size
        index = line % self.n_sets
        way = self._sets[index]
        self.accesses += weight
        if line in way:
            way.move_to_end(line)
            return True
        self.misses += weight
        way[line] = True
        if len(way) > self.associativity:
            way.popitem(last=False)
        return False

    def install(self, address: int) -> None:
        """Bring a line in without counting (hardware prefetch model)."""
        line = address // self.line_size
        way = self._sets[line % self.n_sets]
        if line in way:
            way.move_to_end(line)
            return
        way[line] = True
        if len(way) > self.associativity:
            way.popitem(last=False)

    @property
    def miss_rate(self) -> float:
        """Misses / accesses (0 when idle)."""
        if self.accesses == 0:
            return 0.0
        return self.misses / self.accesses


class TlbSim:
    """Fully-associative LRU TLB over 4 KiB pages."""

    def __init__(self, entries: int = 64, page_size: int = PAGE_SIZE):
        self.entries = entries
        self.page_size = page_size
        self._pages: OrderedDict = OrderedDict()
        self.accesses = 0.0
        self.misses = 0.0

    def access(self, address: int, weight: float = 1.0) -> bool:
        """Translate one address; returns True on TLB hit."""
        page = address // self.page_size
        self.accesses += weight
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self.misses += weight
        self._pages[page] = True
        if len(self._pages) > self.entries:
            self._pages.popitem(last=False)
        return False


class PageFaultSim:
    """First-touch (minor) page faults over 4 KiB pages."""

    def __init__(self, page_size: int = PAGE_SIZE):
        self.page_size = page_size
        self._touched = set()
        self.faults = 0.0

    def access(self, address: int, weight: float = 1.0) -> None:
        """Record a touch; faults on the first touch of each page."""
        page = address // self.page_size
        if page not in self._touched:
            self._touched.add(page)
            self.faults += weight


@dataclass
class MemoryCounters:
    """The Figure-7/8 counter set."""

    l1_accesses: float = 0.0
    l1_misses: float = 0.0
    llc_misses: float = 0.0
    tlb_misses: float = 0.0
    page_faults: float = 0.0
    footprint_bytes: int = 0
    regions: Dict[Hashable, int] = field(default_factory=dict)

    @property
    def l1_miss_rate(self) -> float:
        """L1d miss rate."""
        if self.l1_accesses == 0:
            return 0.0
        return self.l1_misses / self.l1_accesses

    @property
    def tlb_miss_rate(self) -> float:
        """dTLB load-miss rate."""
        if self.l1_accesses == 0:
            return 0.0
        return self.tlb_misses / self.l1_accesses

    def per_triple(self, n_triples: int) -> Dict[str, float]:
        """Counters normalised per inferred triple (the figures' axes)."""
        divisor = max(1, n_triples)
        return {
            "cache_misses_per_triple": self.llc_misses / divisor,
            "l1_misses_per_triple": self.l1_misses / divisor,
            "tlb_misses_per_triple": self.tlb_misses / divisor,
            "page_faults_per_triple": self.page_faults / divisor,
            "l1_miss_rate": self.l1_miss_rate,
            "tlb_miss_rate": self.tlb_miss_rate,
        }


class MemoryHierarchy:
    """L1d + LLC + TLB + page-fault pipeline with trace replay."""

    def __init__(
        self,
        *,
        l1_size: int = 32 * 1024,
        l1_ways: int = 8,
        llc_size: int = 8 * 1024 * 1024,
        llc_ways: int = 16,
        tlb_entries: int = 64,
        seed: int = 0x5EED,
        prefetch_distance: int = 0,
    ):
        self.l1 = CacheSim(l1_size, l1_ways)
        self.llc = CacheSim(llc_size, llc_ways)
        self.tlb = TlbSim(tlb_entries)
        self.pages = PageFaultSim()
        self.space = AddressSpace(seed)
        #: Next-line stride prefetcher: on a detected +1-line stride,
        #: bring the next N lines in ahead of use.  0 disables it.  The
        #: paper's premise — "a predictive memory access pattern guides
        #: the prefetcher to retrieve the data correctly in advance" —
        #: is exactly what this models; enabling it widens Inferray's
        #: advantage (sequential scans stop missing) without helping
        #: the hash/pointer engines.
        self.prefetch_distance = prefetch_distance
        self._last_line: Optional[int] = None

    # ------------------------------------------------------------------
    # Single access
    # ------------------------------------------------------------------
    def access(self, address: int, weight: float = 1.0) -> None:
        """Run one 8-byte access through the hierarchy."""
        if self.prefetch_distance:
            line = address // LINE_SIZE
            if self._last_line is not None and line == self._last_line + 1:
                for ahead in range(1, self.prefetch_distance + 1):
                    prefetched = address + ahead * LINE_SIZE
                    self.l1.install(prefetched)
                    self.llc.install(prefetched)
            self._last_line = line
        if not self.l1.access(address, weight):
            self.llc.access(address, weight)
        self.tlb.access(address, weight)
        self.pages.access(address, weight)

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, ops: Iterable[TraceOp]) -> MemoryCounters:
        """Replay recorded operations; returns the counters snapshot."""
        extra_hits = 0.0
        for kind, region, amount in ops:
            if kind == ALLOC:
                self.space.grow(region, amount)
            elif kind == SEQ:
                # Simulate per line (captures misses exactly); account
                # the element-level accesses (8-byte stride) as hits on
                # the already-resident line.
                n_lines = 0
                for address in self.space.sequential_addresses(
                    region, amount, LINE_SIZE
                ):
                    self.access(address)
                    n_lines += 1
                logical = amount // 8
                if logical > n_lines:
                    extra_hits += logical - n_lines
            elif kind == RAND:
                weight, count = self._sample(amount)
                for address in self.space.random_addresses(region, count):
                    self.access(address, weight)
            elif kind == CHASE:
                weight, count = self._sample(amount)
                for address in self.space.chase_addresses(region, count):
                    self.access(address, weight)
            else:  # pragma: no cover - tracer only emits known kinds
                raise ValueError(f"unknown trace op {kind!r}")
        self.l1.accesses += extra_hits
        self.tlb.accesses += extra_hits
        return self.counters()

    @staticmethod
    def _sample(amount: int) -> Tuple[float, int]:
        """(weight, simulated_count) for possibly-sampled operations."""
        if amount <= SAMPLE_CAP:
            return 1.0, amount
        return amount / SAMPLE_CAP, SAMPLE_CAP

    def counters(self) -> MemoryCounters:
        """Current counter snapshot."""
        return MemoryCounters(
            l1_accesses=self.l1.accesses,
            l1_misses=self.l1.misses,
            llc_misses=self.llc.misses,
            tlb_misses=self.tlb.misses,
            page_faults=self.pages.faults,
            footprint_bytes=self.space.total_footprint(),
            regions={
                key: self.space.footprint(key)
                for key in self.space._regions
            },
        )


def replay_trace(
    ops: Iterable[TraceOp], *, seed: int = 0x5EED, **config
) -> MemoryCounters:
    """One-shot convenience: fresh hierarchy, replay, counters."""
    hierarchy = MemoryHierarchy(seed=seed, **config)
    return hierarchy.replay(ops)
