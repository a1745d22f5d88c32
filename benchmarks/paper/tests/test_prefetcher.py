"""Tests for the next-line stride prefetcher model."""

from paper.memsim.hierarchy import CacheSim, MemoryHierarchy
from paper.memsim.tracer import RecordingTracer


class TestInstall:
    def test_install_does_not_count(self):
        cache = CacheSim(32 * 1024, 8)
        cache.install(0)
        assert cache.accesses == 0
        assert cache.misses == 0
        assert cache.access(0)  # already resident

    def test_install_respects_capacity(self):
        cache = CacheSim(1024, 2, line_size=64)
        stride = 8 * 64
        cache.install(0)
        cache.install(stride)
        cache.install(2 * stride)
        assert not cache.access(0)  # evicted by the third install


class TestPrefetcher:
    @staticmethod
    def _seq_trace(n_bytes):
        tracer = RecordingTracer()
        tracer.sequential_scan("arr", n_bytes)
        return tracer.ops

    def test_sequential_scan_misses_vanish(self):
        cold = MemoryHierarchy().replay(self._seq_trace(1 << 20))
        warmed = MemoryHierarchy(prefetch_distance=4).replay(
            self._seq_trace(1 << 20)
        )
        assert warmed.l1_misses < cold.l1_misses / 3

    def test_random_accesses_unaffected(self):
        tracer = RecordingTracer()
        tracer.alloc("hash", 64 << 20)
        tracer.random_access("hash", 3000)
        cold = MemoryHierarchy().replay(tracer.ops)
        warmed = MemoryHierarchy(prefetch_distance=4).replay(tracer.ops)
        # Prefetching needs a stride; uniform probes present none.
        assert warmed.l1_misses >= cold.l1_misses * 0.95

    def test_page_faults_unchanged(self):
        cold = MemoryHierarchy().replay(self._seq_trace(1 << 18))
        warmed = MemoryHierarchy(prefetch_distance=2).replay(
            self._seq_trace(1 << 18)
        )
        assert warmed.page_faults == cold.page_faults

    def test_disabled_by_default(self):
        hierarchy = MemoryHierarchy()
        assert hierarchy.prefetch_distance == 0
