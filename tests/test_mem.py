"""Unit + property tests for the memory subsystem."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MemoryRegistrationError
from repro.mem import (PAGE_SIZE, Access, AddressSpace, PhysicalMemory,
                       SGE, TranslationTable, sg_total)


@pytest.fixture
def phys():
    return PhysicalMemory(size_bytes=64 * 1024 * 1024)


@pytest.fixture
def aspace(phys):
    return AddressSpace(phys, name="test-proc")


@pytest.fixture
def table():
    return TranslationTable()


class TestAddressSpace:
    def test_alloc_is_page_aligned(self, aspace):
        rng = aspace.alloc(100)
        assert rng.addr % PAGE_SIZE == 0
        assert rng.length == 100

    def test_allocations_do_not_overlap(self, aspace):
        a = aspace.alloc(5000)
        b = aspace.alloc(5000)
        assert a.end <= b.addr

    def test_zero_alloc_rejected(self, aspace):
        with pytest.raises(MemoryRegistrationError):
            aspace.alloc(0)

    def test_write_read_roundtrip(self, aspace):
        rng = aspace.alloc(8192)
        aspace.write(rng.addr + 10, b"hello world")
        assert aspace.read(rng.addr + 10, 11) == b"hello world"

    def test_read_unwritten_is_zeros(self, aspace):
        rng = aspace.alloc(4096)
        assert aspace.read(rng.addr, 16) == bytes(16)

    def test_write_spanning_pages(self, aspace):
        rng = aspace.alloc(3 * PAGE_SIZE)
        data = bytes(range(256)) * 40  # 10240 bytes, spans 3 pages
        aspace.write(rng.addr + 100, data)
        assert aspace.read(rng.addr + 100, len(data)) == data

    def test_unmapped_access_raises(self, aspace):
        with pytest.raises(MemoryRegistrationError):
            aspace.read(0xDEAD0000, 4)
        with pytest.raises(MemoryRegistrationError):
            aspace.write(0xDEAD0000, b"x")

    def test_sparse_frames(self, phys, aspace):
        rng = aspace.alloc(1024 * PAGE_SIZE)
        assert phys.frames_materialized == 0
        aspace.write(rng.addr, b"x")
        assert phys.frames_materialized == 1

    def test_is_all_zero(self, aspace):
        rng = aspace.alloc(2 * PAGE_SIZE)
        assert aspace.is_all_zero(rng.addr, rng.length)
        aspace.write(rng.addr + PAGE_SIZE + 5, b"y")
        assert not aspace.is_all_zero(rng.addr, rng.length)
        assert aspace.is_all_zero(rng.addr, PAGE_SIZE)

    def test_out_of_physical_memory(self):
        small = PhysicalMemory(size_bytes=2 * PAGE_SIZE)
        a = AddressSpace(small)
        a.alloc(2 * PAGE_SIZE)
        with pytest.raises(MemoryRegistrationError):
            a.alloc(1)

    @settings(max_examples=50, deadline=None)
    @given(offset=st.integers(0, 3 * PAGE_SIZE),
           data=st.binary(min_size=1, max_size=PAGE_SIZE))
    def test_roundtrip_property(self, offset, data):
        phys = PhysicalMemory()
        a = AddressSpace(phys)
        rng = a.alloc(4 * PAGE_SIZE)
        a.write(rng.addr + offset, data)
        assert a.read(rng.addr + offset, len(data)) == data

    def test_frame_holds_only_the_bytes_written(self, phys, aspace):
        rng = aspace.alloc(PAGE_SIZE)
        aspace.write(rng.addr + 10, b"abc")
        (frame,) = phys._frames.values()
        assert len(frame) == 13
        aspace.write(rng.addr + 100, b"z")          # grows, zero-filled
        assert len(frame) == 101
        assert aspace.read(rng.addr, PAGE_SIZE) == (
            bytes(10) + b"abc" + bytes(87) + b"z" + bytes(PAGE_SIZE - 101))
        aspace.write(rng.addr, b"q")                # below the end: no growth
        assert len(frame) == 101

    @settings(max_examples=100, deadline=None)
    @given(ops=st.lists(st.one_of(
        st.tuples(st.just("write"), st.integers(0, 4 * PAGE_SIZE),
                  st.binary(max_size=PAGE_SIZE + 200)),
        st.tuples(st.just("read"), st.integers(0, 4 * PAGE_SIZE),
                  st.integers(0, 2 * PAGE_SIZE)),
        st.tuples(st.just("is_all_zero"), st.integers(0, 4 * PAGE_SIZE),
                  st.integers(0, 2 * PAGE_SIZE))),
        max_size=30))
    def test_matches_a_dense_model(self, ops):
        """Interleaved writes, reads and zero queries agree with one dense
        ``bytearray`` plus the set of pages written."""
        size = 4 * PAGE_SIZE
        phys = PhysicalMemory()
        a = AddressSpace(phys)
        base = a.alloc(size).addr
        model = bytearray(size)
        written = set()
        for op, off, arg in ops:
            if op == "write":
                data = arg[:size - off]
                a.write(base + off, data)
                model[off:off + len(data)] = data
                written.update(range(off // PAGE_SIZE,
                                     (off + len(data) - 1) // PAGE_SIZE + 1)
                               if data else ())
            else:
                off = min(off, size - 1)
                length = min(arg, size - off)
                if op == "read":
                    assert a.read(base + off, length) == \
                        bytes(model[off:off + length])
                else:
                    last = (off + length - 1) // PAGE_SIZE if length \
                        else off // PAGE_SIZE
                    pages = range(off // PAGE_SIZE, last + 1)
                    assert a.is_all_zero(base + off, length) == \
                        written.isdisjoint(pages)
            assert phys.frames_materialized == len(written)
        assert a.read(base, size) == bytes(model)


class TestRegistration:
    def test_register_and_translate(self, aspace, table):
        rng = aspace.alloc(8192)
        mr = table.register(aspace, rng.addr, 8192)
        assert table.check(mr.lkey, rng.addr, 8192, Access.LOCAL_READ) is mr

    def test_unmapped_region_rejected(self, aspace, table):
        with pytest.raises(MemoryRegistrationError):
            table.register(aspace, 0xBAD000, 4096)

    def test_unknown_key_rejected(self, table):
        with pytest.raises(MemoryRegistrationError):
            table.lookup(0xFFFF)

    def test_out_of_bounds_access_rejected(self, aspace, table):
        rng = aspace.alloc(4096)
        mr = table.register(aspace, rng.addr, 4096)
        with pytest.raises(MemoryRegistrationError):
            table.check(mr.lkey, rng.addr + 4000, 200, Access.LOCAL_READ)

    def test_access_rights_enforced(self, aspace, table):
        rng = aspace.alloc(4096)
        mr = table.register(aspace, rng.addr, 4096, access=Access.LOCAL_READ)
        with pytest.raises(MemoryRegistrationError):
            table.check(mr.lkey, rng.addr, 16, Access.LOCAL_WRITE)

    def test_deregister(self, aspace, table):
        rng = aspace.alloc(4096)
        mr = table.register(aspace, rng.addr, 4096)
        table.deregister(mr.lkey)
        with pytest.raises(MemoryRegistrationError):
            table.lookup(mr.lkey)
        with pytest.raises(MemoryRegistrationError):
            table.deregister(mr.lkey)

    def test_keys_unique(self, aspace, table):
        rng = aspace.alloc(8192)
        mr1 = table.register(aspace, rng.addr, 4096)
        mr2 = table.register(aspace, rng.addr + 4096, 4096)
        assert mr1.lkey != mr2.lkey

    def test_empty_registration_rejected(self, aspace, table):
        rng = aspace.alloc(4096)
        with pytest.raises(MemoryRegistrationError):
            table.register(aspace, rng.addr, 0)


class TestBuffers:
    def test_sge_helpers(self, aspace, table):
        rng = aspace.alloc(4096)
        mr = table.register(aspace, rng.addr, 4096)
        sge = SGE(rng.addr + 128, 256, mr.lkey)
        assert sg_total([sge, SGE(rng.addr, 100, mr.lkey)]) == 356

    def test_negative_sge_rejected(self):
        with pytest.raises(MemoryRegistrationError):
            SGE(0, -1, 0)
