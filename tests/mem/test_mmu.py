"""Tests for paging, the software TLB and the MMU."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import (MMU, PAGE_SIZE, PROT_DEVICE, PROT_R, PROT_RW,
                       PROT_RX, PROT_W, AlignmentFault, PageFault,
                       PageTable, PhysicalMemory, SoftTlb)


def make_mmu(pages=8, tlb_capacity=256):
    phys = PhysicalMemory(64 * PAGE_SIZE)
    table = PageTable()
    for vpn in range(pages):
        table.map(vpn, phys.alloc_frame(), PROT_RW | 4)  # rwx
    mmu = MMU(phys, table, tlb_capacity=tlb_capacity)
    return mmu, table, phys


# ----------------------------------------------------------------------
# page table

def test_page_table_map_lookup_unmap():
    table = PageTable()
    table.map(5, 9, PROT_RW)
    entry = table.lookup(5)
    assert entry.pfn == 9 and entry.allows(PROT_W)
    generation = table.generation
    table.unmap(5)
    assert table.lookup(5) is None
    assert table.generation == generation + 1


def test_page_table_protect():
    table = PageTable()
    table.map(1, 2, PROT_RW)
    table.protect(1, PROT_R)
    assert not table.lookup(1).allows(PROT_W)
    with pytest.raises(KeyError):
        table.protect(9, PROT_R)


def test_remap_bumps_generation():
    table = PageTable()
    table.map(1, 2, PROT_RW)
    generation = table.generation
    table.map(1, 3, PROT_RW)
    assert table.generation == generation + 1


# ----------------------------------------------------------------------
# soft TLB

def test_soft_tlb_eviction_fifo():
    tlb = SoftTlb(capacity=2)
    assert tlb.insert(10) == -1
    assert tlb.insert(11) == -1
    assert tlb.insert(12) == 10  # FIFO victim
    assert 10 not in tlb and 11 in tlb and 12 in tlb
    assert tlb.stats.misses == 3
    assert tlb.stats.evictions == 1


def test_soft_tlb_flush_and_invalidate():
    tlb = SoftTlb(capacity=4)
    tlb.insert(1)
    tlb.insert(2)
    assert tlb.invalidate(1)
    assert not tlb.invalidate(1)
    tlb.flush()
    assert len(tlb) == 0
    assert tlb.stats.flushes == 1


def test_soft_tlb_rejects_bad_capacity():
    with pytest.raises(ValueError):
        SoftTlb(capacity=0)


# ----------------------------------------------------------------------
# MMU basics

def test_read_write_roundtrip_all_sizes():
    mmu, _, _ = make_mmu()
    mmu.write_u8(0x10, 0xAB)
    mmu.write_u16(0x12, 0xBEEF)
    mmu.write_u32(0x14, 0xDEADBEEF)
    mmu.write_u64(0x18, 0x1122334455667788)
    assert mmu.read_u8(0x10) == 0xAB
    assert mmu.read_u16(0x12) == 0xBEEF
    assert mmu.read_u32(0x14) == 0xDEADBEEF
    assert mmu.read_u64(0x18) == 0x1122334455667788


def _f64_bits(value):
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def _f64_from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def test_f64_roundtrip():
    mmu, _, _ = make_mmu()
    nan_payload = _f64_from_bits(0x7FF8_0000_DEAD_BEEF)
    values = [3.14159, -0.0, math.inf, -math.inf, nan_payload, 5e-324]
    for slot, value in enumerate(values):
        addr = 0x40 + 8 * slot
        mmu.write_f64(addr, value)
        # the stored bytes are the value's IEEE-754 little-endian image,
        # and a load gives back the same bit pattern (sign of zero and
        # NaN payload included)
        assert mmu.read_u64(addr) == _f64_bits(value)
        assert _f64_bits(mmu.read_f64(addr)) == _f64_bits(value)
    assert _f64_bits(mmu.read_f64(0x48)) == 1 << 63
    assert mmu.read_u64(0x60) == 0x7FF8_0000_DEAD_BEEF


def test_misaligned_accesses_fault():
    mmu, _, _ = make_mmu()
    with pytest.raises(AlignmentFault):
        mmu.read_u16(0x11)
    with pytest.raises(AlignmentFault):
        mmu.read_u32(0x12)
    with pytest.raises(AlignmentFault):
        mmu.read_u64(0x14)
    with pytest.raises(AlignmentFault):
        mmu.write_u64(0x14, 0)
    with pytest.raises(AlignmentFault):
        mmu.fetch_word(0x2)


def test_unmapped_page_faults():
    mmu, _, _ = make_mmu(pages=2)
    with pytest.raises(PageFault) as excinfo:
        mmu.read_u64(10 * PAGE_SIZE)
    assert excinfo.value.access == "read"
    with pytest.raises(PageFault):
        mmu.write_u8(10 * PAGE_SIZE, 1)


def test_permission_violation_faults():
    phys = PhysicalMemory(8 * PAGE_SIZE)
    table = PageTable()
    table.map(0, phys.alloc_frame(), PROT_R)
    mmu = MMU(phys, table)
    assert mmu.read_u8(0) == 0
    with pytest.raises(PageFault):
        mmu.write_u8(0, 1)
    with pytest.raises(PageFault):
        mmu.fetch_word(0)


def test_fetch_word():
    mmu, _, _ = make_mmu()
    mmu.write_u32(0x100, 0x01234567)
    assert mmu.fetch_word(0x100) == 0x01234567


def test_block_read_write_across_pages():
    mmu, _, _ = make_mmu()
    data = bytes(range(200)) * 30  # 6000 bytes, crosses a page
    mmu.write_block(PAGE_SIZE - 100, data)
    assert mmu.read_block(PAGE_SIZE - 100, len(data)) == data


def test_translate():
    mmu, table, _ = make_mmu(pages=2)
    entry = table.lookup(1)
    assert mmu.translate(PAGE_SIZE + 4) == (entry.pfn * PAGE_SIZE) + 4
    with pytest.raises(PageFault):
        mmu.translate(100 * PAGE_SIZE)


# ----------------------------------------------------------------------
# TLB-bounded behaviour

def test_tlb_eviction_keeps_access_correct():
    mmu, _, _ = make_mmu(pages=8, tlb_capacity=2)
    for vpn in range(8):
        mmu.write_u64(vpn * PAGE_SIZE, vpn * 7)
    for vpn in range(8):
        assert mmu.read_u64(vpn * PAGE_SIZE) == vpn * 7
    assert mmu.tlb.stats.evictions > 0


def test_invalidate_page_forces_refill():
    mmu, table, phys = make_mmu(pages=2)
    mmu.write_u64(0, 42)
    # Remap page 0 to a fresh frame; old cached translation must die.
    table.map(0, phys.alloc_frame(), PROT_RW)
    mmu.invalidate_page(0)
    assert mmu.read_u64(0) == 0


def test_flush_clears_everything():
    mmu, _, _ = make_mmu()
    mmu.write_u64(0, 1)
    mmu.flush()
    assert len(mmu.tlb) == 0
    assert mmu.read_u64(0) == 1  # refills fine


# ----------------------------------------------------------------------
# self-modifying-code hook

def test_code_page_write_triggers_hook():
    mmu, _, _ = make_mmu()
    hits = []
    mmu.code_write_hook = lambda vpn, addr: hits.append((vpn, addr))
    mmu.write_u32(0x0, 0x11111111)      # plain data write, no hook
    mmu.register_code_page(0)
    mmu.write_u32(0x4, 0x22222222)      # write into code page
    assert hits == [(0, 0x4)]
    # After invalidation the page is data again: no second hook call.
    mmu.write_u32(0x8, 0x33333333)
    assert hits == [(0, 0x4)]


def test_device_pages_route_to_bus():
    class Bus:
        def __init__(self):
            self.reads = []
            self.writes = []
            self.value = 0x5A

        def read(self, addr, size):
            self.reads.append((addr, size))
            return self.value

        def write(self, addr, size, value):
            self.writes.append((addr, size, value))

    phys = PhysicalMemory(8 * PAGE_SIZE)
    table = PageTable()
    table.map(0, 0, PROT_RW | PROT_DEVICE)
    bus = Bus()
    mmu = MMU(phys, table, bus=bus)
    assert mmu.read_u32(0x8) == 0x5A
    mmu.write_u64(0x10, 0x77)
    assert bus.reads == [(0x8, 4)]
    assert bus.writes == [(0x10, 8, 0x77)]
    # Device translations are never cached.
    mmu.read_u8(0x8)
    assert len(bus.reads) == 2
    # f64 accesses move the value's bit pattern over the bus
    bus.value = _f64_bits(-2.5)
    assert mmu.read_f64(0x18) == -2.5
    mmu.write_f64(0x20, -0.0)
    mmu.write_f64(0x28, math.inf)
    assert bus.reads[2:] == [(0x18, 8)]
    assert bus.writes[1:] == [(0x20, 8, 1 << 63),
                              (0x28, 8, 0x7FF0_0000_0000_0000)]


# ----------------------------------------------------------------------
# property-based: MMU behaves like a flat little-endian memory

#: access kind -> (size, encoding of the bytes in memory)
_WIDTHS = {"u8": (1, "<B"), "u16": (2, "<H"), "u32": (4, "<I"),
           "u64": (8, "<Q"), "f64": (8, "<d")}

_ACCESS = st.tuples(
    st.booleans(),                                  # store or load
    st.sampled_from(sorted(_WIDTHS)),
    st.integers(0, 7),                              # page
    # the head and the tail of a page, so accesses overlap and reach
    # the last aligned slot of the page
    st.one_of(st.integers(0, 31),
              st.integers(PAGE_SIZE - 32, PAGE_SIZE - 1)),
    st.integers(-(2**64), 2**65))                   # store value


@settings(max_examples=50, deadline=None)
@given(st.lists(_ACCESS, min_size=1, max_size=60))
def test_mmu_matches_reference_model(accesses):
    mmu, _, _ = make_mmu(pages=8, tlb_capacity=4)
    reference = bytearray(8 * PAGE_SIZE)
    for store, kind, vpn, offset, value in accesses:
        size, fmt = _WIDTHS[kind]
        addr = vpn * PAGE_SIZE + (offset & ~(size - 1))  # align
        if store:
            if kind == "f64":
                value = _f64_from_bits(value & (2**64 - 1))
                encoded = struct.pack(fmt, value)
            else:
                encoded = (value & ((1 << 8 * size) - 1)).to_bytes(
                    size, "little")
            getattr(mmu, f"write_{kind}")(addr, value)
            reference[addr:addr + size] = encoded
        loaded = getattr(mmu, f"read_{kind}")(addr)
        assert struct.pack(fmt, loaded) == reference[addr:addr + size]
    assert mmu.read_block(0, len(reference)) == reference
