"""Unit tests for tracers and the address-space model."""

from paper.memsim.address_space import (
    AddressSpace,
    OBJECT_BYTES,
    REGION_WINDOW,
)
from paper.memsim.tracer import RecordingTracer


class TestRecordingTracer:
    def test_records_kinds(self):
        tracer = RecordingTracer()
        tracer.sequential_scan("a", 100)
        tracer.random_access("b", 5)
        tracer.pointer_chase("c", 3)
        tracer.alloc("d", 64)
        kinds = [op[0] for op in tracer.ops]
        assert kinds == ["seq", "rand", "chase", "alloc"]

    def test_zero_amounts_skipped(self):
        tracer = RecordingTracer()
        tracer.sequential_scan("a", 0)
        tracer.random_access("a", 0)
        tracer.pointer_chase("a", 0)
        tracer.alloc("a", 0)
        assert len(tracer) == 0

    def test_clear(self):
        tracer = RecordingTracer()
        tracer.sequential_scan("a", 8)
        tracer.clear()
        assert len(tracer) == 0


class TestAddressSpace:
    def test_regions_widely_separated(self):
        space = AddressSpace()
        a = list(space.sequential_addresses("a", 64, 64))[0]
        b = list(space.sequential_addresses("b", 64, 64))[0]
        assert abs(a - b) >= REGION_WINDOW

    def test_sequential_addresses_stride(self):
        space = AddressSpace()
        addrs = list(space.sequential_addresses("x", 256, 64))
        assert len(addrs) == 4
        assert addrs[1] - addrs[0] == 64

    def test_grow_and_footprint(self):
        space = AddressSpace()
        space.grow("h", 100)
        space.grow("h", 50)
        assert space.footprint("h") == 150
        assert space.total_footprint() == 150

    def test_ensure_only_grows(self):
        space = AddressSpace()
        space.ensure("x", 100)
        space.ensure("x", 50)
        assert space.footprint("x") == 100

    def test_random_addresses_within_region(self):
        space = AddressSpace()
        space.grow("r", 4096)
        addrs = list(space.random_addresses("r", 100))
        base = addrs and min(addrs)
        assert all(a >= REGION_WINDOW for a in addrs)
        assert max(addrs) - min(addrs) <= 4096

    def test_chase_object_alignment(self):
        space = AddressSpace()
        space.grow("heap", OBJECT_BYTES * 10)
        addrs = list(space.chase_addresses("heap", 50))
        for addr in addrs:
            assert (addr % OBJECT_BYTES) == (addrs[0] % OBJECT_BYTES)

    def test_deterministic_sequences(self):
        a = AddressSpace(seed=1)
        b = AddressSpace(seed=1)
        a.grow("r", 1 << 16)
        b.grow("r", 1 << 16)
        assert list(a.random_addresses("r", 20)) == list(
            b.random_addresses("r", 20)
        )
