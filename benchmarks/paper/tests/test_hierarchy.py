"""Unit tests for the cache/TLB/page-fault simulator."""

import pytest

from paper.memsim.hierarchy import (
    CacheSim,
    MemoryHierarchy,
    PageFaultSim,
    SAMPLE_CAP,
    TlbSim,
    replay_trace,
)
from paper.memsim.tracer import RecordingTracer


class TestCacheSim:
    def test_cold_miss_then_hit(self):
        cache = CacheSim(32 * 1024, 8)
        assert not cache.access(0)
        assert cache.access(0)
        assert cache.access(63)  # same line
        assert not cache.access(64)  # next line

    def test_capacity_eviction(self):
        cache = CacheSim(1024, 2, line_size=64)  # 16 lines, 8 sets
        # Fill one set beyond its 2 ways: lines mapping to set 0.
        stride = 8 * 64  # n_sets * line
        cache.access(0)
        cache.access(stride)
        cache.access(2 * stride)  # evicts line 0 (LRU)
        assert not cache.access(0)

    def test_lru_order(self):
        cache = CacheSim(1024, 2, line_size=64)
        stride = 8 * 64
        cache.access(0)
        cache.access(stride)
        cache.access(0)  # refresh line 0
        cache.access(2 * stride)  # should evict `stride`, not 0
        assert cache.access(0)
        assert not cache.access(stride)

    def test_miss_rate(self):
        cache = CacheSim(32 * 1024, 8)
        assert cache.miss_rate == 0.0
        cache.access(0)
        cache.access(0)
        assert cache.miss_rate == 0.5

    def test_weight_scales_counters(self):
        cache = CacheSim(32 * 1024, 8)
        cache.access(0, weight=10.0)
        assert cache.accesses == 10.0
        assert cache.misses == 10.0

    def test_bad_geometry_rejected(self):
        with pytest.raises(ValueError):
            CacheSim(1000, 3)


class TestTlbSim:
    def test_page_reuse_hits(self):
        tlb = TlbSim(entries=4)
        assert not tlb.access(0)
        assert tlb.access(8)       # same 4K page
        assert not tlb.access(4096)

    def test_capacity(self):
        tlb = TlbSim(entries=2)
        tlb.access(0)
        tlb.access(4096)
        tlb.access(8192)  # evicts page 0
        assert not tlb.access(0)


class TestPageFaults:
    def test_first_touch_only(self):
        pages = PageFaultSim()
        pages.access(0)
        pages.access(100)
        pages.access(5000)
        assert pages.faults == 2


class TestReplay:
    def test_sequential_scan_miss_rate(self):
        tracer = RecordingTracer()
        tracer.sequential_scan("arr", 1 << 20)
        counters = replay_trace(tracer.ops)
        # One miss per 64-byte line, one logical access per 8 bytes.
        assert abs(counters.l1_miss_rate - 0.125) < 0.01

    def test_repeated_small_scan_stays_cached(self):
        tracer = RecordingTracer()
        for _ in range(10):
            tracer.sequential_scan("small", 8 * 1024)  # fits in L1
        counters = replay_trace(tracer.ops)
        assert counters.l1_misses == 8 * 1024 // 64  # cold misses only

    def test_random_over_large_region_misses(self):
        tracer = RecordingTracer()
        tracer.alloc("hash", 64 << 20)
        tracer.random_access("hash", 4000)
        counters = replay_trace(tracer.ops)
        assert counters.l1_miss_rate > 0.9
        assert counters.tlb_miss_rate > 0.9

    def test_chase_touches_objects(self):
        tracer = RecordingTracer()
        tracer.alloc("heap", 1 << 20)
        tracer.pointer_chase("heap", 1000)
        counters = replay_trace(tracer.ops)
        assert counters.l1_accesses == 1000

    def test_sampling_preserves_totals(self):
        tracer = RecordingTracer()
        tracer.alloc("big", 64 << 20)
        tracer.random_access("big", SAMPLE_CAP * 10)
        counters = replay_trace(tracer.ops)
        assert counters.l1_accesses == pytest.approx(SAMPLE_CAP * 10)

    def test_deterministic(self):
        tracer = RecordingTracer()
        tracer.alloc("r", 1 << 22)
        tracer.random_access("r", 500)
        tracer.sequential_scan("arr", 1 << 16)
        a = replay_trace(tracer.ops)
        b = replay_trace(tracer.ops)
        assert a.l1_misses == b.l1_misses
        assert a.tlb_misses == b.tlb_misses
        assert a.page_faults == b.page_faults

    def test_counters_per_triple(self):
        tracer = RecordingTracer()
        tracer.sequential_scan("arr", 64 * 100)
        counters = replay_trace(tracer.ops)
        per = counters.per_triple(100)
        assert per["cache_misses_per_triple"] == counters.llc_misses / 100
        assert per["page_faults_per_triple"] == counters.page_faults / 100

    def test_per_triple_zero_guard(self):
        counters = replay_trace([])
        assert counters.per_triple(0)["tlb_misses_per_triple"] == 0.0

    def test_footprint_tracking(self):
        tracer = RecordingTracer()
        tracer.alloc("a", 1000)
        tracer.alloc("a", 1000)
        tracer.alloc("b", 500)
        hierarchy = MemoryHierarchy()
        counters = hierarchy.replay(tracer.ops)
        assert counters.footprint_bytes == 2500
        assert counters.regions["a"] == 2000


class TestCustomHierarchyGeometry:
    def test_smaller_l1_misses_more(self):
        tracer = RecordingTracer()
        # Two passes over a 16 KiB array: fits a 32K L1, not a 8K one.
        tracer.sequential_scan("arr", 16 * 1024)
        tracer.sequential_scan("arr", 16 * 1024)
        big = MemoryHierarchy(l1_size=32 * 1024).replay(tracer.ops)
        small = MemoryHierarchy(l1_size=8 * 1024).replay(tracer.ops)
        assert small.l1_misses > big.l1_misses

    def test_larger_tlb_misses_less(self):
        tracer = RecordingTracer()
        tracer.alloc("r", 2 << 20)
        tracer.random_access("r", 2000)
        tracer.random_access("r", 2000)
        small = MemoryHierarchy(tlb_entries=16).replay(tracer.ops)
        large = MemoryHierarchy(tlb_entries=1024).replay(tracer.ops)
        assert large.tlb_misses < small.tlb_misses
