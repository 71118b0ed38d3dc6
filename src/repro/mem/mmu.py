"""Memory management unit: the VM's hot memory-access path.

The MMU couples the guest page table to demand-allocated physical memory
through a bounded software TLB (:class:`repro.mem.tlb.SoftTlb`), exactly
like a fast emulator does: hits are a single dict lookup that yields the
backing page frame, misses walk the page table and may raise a
:class:`~repro.mem.faults.PageFault` for the kernel layer to handle.

Three additional responsibilities matter for the paper's mechanisms:

* **MMIO routing** — pages mapped with ``PROT_DEVICE`` are never cached;
  every access goes to the device bus (the VM's I/O-operation statistic).
* **Self-modifying-code detection** — pages that hold translated code are
  removed from the fast write path; a write to them invokes
  ``code_write_hook`` so the binary translator can invalidate its cache
  (the VM's code-cache-invalidation statistic).
* **Alignment** — Z64 requires naturally aligned accesses; violations
  raise :class:`~repro.mem.faults.AlignmentFault`.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Optional, Set, Tuple

from .faults import AlignmentFault, PageFault
from .paging import (PROT_DEVICE, PROT_R, PROT_W, PROT_X, PageTable)
from .physical import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, PhysicalMemory
from .tlb import SoftTlb

# One precompiled little-endian codec per access width.  Loads unpack
# straight out of the cached page frame and stores pack straight into
# it, so a hit builds no slice and no bytes object.
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")
_load16, _store16 = _U16.unpack_from, _U16.pack_into
_load32, _store32 = _U32.unpack_from, _U32.pack_into
_load64, _store64 = _U64.unpack_from, _U64.pack_into
_loadf, _storef = _F64.unpack_from, _F64.pack_into


class MMU:
    """Translates and performs all guest memory accesses."""

    def __init__(self, phys: PhysicalMemory, page_table: PageTable,
                 bus=None, tlb_capacity: int = 256):
        self.phys = phys
        self.page_table = page_table
        self.bus = bus
        self.tlb = SoftTlb(tlb_capacity)
        # Fast-path caches: vpn -> backing page frame (bytearray).
        self._rd: Dict[int, bytearray] = {}
        self._wr: Dict[int, bytearray] = {}
        self._ex: Dict[int, bytearray] = {}
        #: virtual pages that contain translated code (write-protected in
        #: the fast path so the translator can observe self-modification)
        self.code_pages: Set[int] = set()
        #: called with the written VPN before a store into a code page
        self.code_write_hook: Optional[Callable[[int], None]] = None
        #: sibling MMUs sharing :attr:`code_pages` (SMP guests); empty
        #: for a single-core machine
        self._code_peers: Tuple["MMU", ...] = ()
        #: optional access probe (MAV profiling): when a list, the fill
        #: slow path appends the VPN of every successful TLB fill.
        #: ``None`` keeps the fast path untouched — one predictable
        #: branch on the *miss* path only.
        self.fill_log: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # TLB fill (slow path)

    def _fill(self, vpn: int, access_bit: int, vaddr: int,
              access: str) -> Optional[bytearray]:
        """Walk the page table for ``vpn``.

        Returns the backing frame, or ``None`` for device pages (the
        caller must route the access to the bus).  Raises ``PageFault``
        when unmapped or the permission is missing.
        """
        entry = self.page_table.lookup(vpn)
        if entry is None or not entry.prot & access_bit:
            raise PageFault(vaddr, access)
        if self.fill_log is not None:
            self.fill_log.append(vpn)
        if entry.prot & PROT_DEVICE:
            # Count as a miss but never cache device translations.
            return None
        victim = self.tlb.insert(vpn)
        if victim >= 0:
            self._rd.pop(victim, None)
            self._wr.pop(victim, None)
            self._ex.pop(victim, None)
        frame = self.phys.frame(entry.pfn)
        if access_bit == PROT_R:
            self._rd[vpn] = frame
        elif access_bit == PROT_W:
            # Dirty tracking for delta checkpoints: the frame is marked
            # once per write-cache fill, not per store — checkpoints drop
            # the write cache so post-snapshot stores re-fill and re-mark.
            self.phys.mark_frame_written(entry.pfn)
            if vpn in self.code_pages:
                # Tell the translator which address was written so it can
                # invalidate the overlapping blocks.  The page then drops
                # out of the protected set (and into the fast write path);
                # protection re-arms when code on it is next translated.
                if self.code_write_hook is not None:
                    self.code_write_hook(vpn, vaddr)
                self.code_pages.discard(vpn)
            self._wr[vpn] = frame
        else:
            self._ex[vpn] = frame
        return frame

    # ------------------------------------------------------------------
    # loads

    def read_u8(self, vaddr: int) -> int:
        vpn = vaddr >> PAGE_SHIFT
        page = self._rd.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_R, vaddr, "read")
            if page is None:
                return self.bus.read(vaddr, 1)
        return page[vaddr & PAGE_MASK]

    def read_u16(self, vaddr: int) -> int:
        if vaddr & 1:
            raise AlignmentFault(vaddr, 2, "read")
        vpn = vaddr >> PAGE_SHIFT
        page = self._rd.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_R, vaddr, "read")
            if page is None:
                return self.bus.read(vaddr, 2)
        return _load16(page, vaddr & PAGE_MASK)[0]

    def read_u32(self, vaddr: int) -> int:
        if vaddr & 3:
            raise AlignmentFault(vaddr, 4, "read")
        vpn = vaddr >> PAGE_SHIFT
        page = self._rd.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_R, vaddr, "read")
            if page is None:
                return self.bus.read(vaddr, 4)
        return _load32(page, vaddr & PAGE_MASK)[0]

    def read_u64(self, vaddr: int) -> int:
        if vaddr & 7:
            raise AlignmentFault(vaddr, 8, "read")
        vpn = vaddr >> PAGE_SHIFT
        page = self._rd.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_R, vaddr, "read")
            if page is None:
                return self.bus.read(vaddr, 8)
        return _load64(page, vaddr & PAGE_MASK)[0]

    def read_f64(self, vaddr: int) -> float:
        if vaddr & 7:
            raise AlignmentFault(vaddr, 8, "read")
        vpn = vaddr >> PAGE_SHIFT
        page = self._rd.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_R, vaddr, "read")
            if page is None:
                bits = self.bus.read(vaddr, 8)
                return _F64.unpack(bits.to_bytes(8, "little"))[0]
        return _loadf(page, vaddr & PAGE_MASK)[0]

    # ------------------------------------------------------------------
    # stores

    def write_u8(self, vaddr: int, value: int) -> None:
        vpn = vaddr >> PAGE_SHIFT
        page = self._wr.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_W, vaddr, "write")
            if page is None:
                self.bus.write(vaddr, 1, value & 0xFF)
                return
        page[vaddr & PAGE_MASK] = value & 0xFF

    def write_u16(self, vaddr: int, value: int) -> None:
        if vaddr & 1:
            raise AlignmentFault(vaddr, 2, "write")
        vpn = vaddr >> PAGE_SHIFT
        page = self._wr.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_W, vaddr, "write")
            if page is None:
                self.bus.write(vaddr, 2, value & 0xFFFF)
                return
        _store16(page, vaddr & PAGE_MASK, value & 0xFFFF)

    def write_u32(self, vaddr: int, value: int) -> None:
        if vaddr & 3:
            raise AlignmentFault(vaddr, 4, "write")
        vpn = vaddr >> PAGE_SHIFT
        page = self._wr.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_W, vaddr, "write")
            if page is None:
                self.bus.write(vaddr, 4, value & 0xFFFFFFFF)
                return
        _store32(page, vaddr & PAGE_MASK, value & 0xFFFFFFFF)

    def write_u64(self, vaddr: int, value: int) -> None:
        if vaddr & 7:
            raise AlignmentFault(vaddr, 8, "write")
        vpn = vaddr >> PAGE_SHIFT
        page = self._wr.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_W, vaddr, "write")
            if page is None:
                self.bus.write(vaddr, 8, value & (2**64 - 1))
                return
        _store64(page, vaddr & PAGE_MASK, value & (2**64 - 1))

    def write_f64(self, vaddr: int, value: float) -> None:
        if vaddr & 7:
            raise AlignmentFault(vaddr, 8, "write")
        vpn = vaddr >> PAGE_SHIFT
        page = self._wr.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_W, vaddr, "write")
            if page is None:
                bits = _U64.unpack(_F64.pack(value))[0]
                self.bus.write(vaddr, 8, bits)
                return
        _storef(page, vaddr & PAGE_MASK, value)

    # ------------------------------------------------------------------
    # instruction fetch

    def fetch_word(self, vaddr: int) -> int:
        """Fetch one 32-bit instruction word (exec permission)."""
        if vaddr & 3:
            raise AlignmentFault(vaddr, 4, "exec")
        vpn = vaddr >> PAGE_SHIFT
        page = self._ex.get(vpn)
        if page is None:
            page = self._fill(vpn, PROT_X, vaddr, "exec")
            if page is None:
                raise PageFault(vaddr, "exec")  # no executable devices
        return _load32(page, vaddr & PAGE_MASK)[0]

    # ------------------------------------------------------------------
    # bulk access (kernel, loader, devices; may cross pages)

    def read_block(self, vaddr: int, size: int) -> bytes:
        out = bytearray()
        while size > 0:
            chunk = min(size, PAGE_SIZE - (vaddr & PAGE_MASK))
            vpn = vaddr >> PAGE_SHIFT
            page = self._rd.get(vpn)
            if page is None:
                page = self._fill(vpn, PROT_R, vaddr, "read")
                if page is None:
                    raise PageFault(vaddr, "read")  # no block MMIO
            off = vaddr & PAGE_MASK
            out += page[off:off + chunk]
            vaddr += chunk
            size -= chunk
        return bytes(out)

    def write_block(self, vaddr: int, data: bytes) -> None:
        pos = 0
        size = len(data)
        while pos < size:
            chunk = min(size - pos, PAGE_SIZE - (vaddr & PAGE_MASK))
            vpn = vaddr >> PAGE_SHIFT
            page = self._wr.get(vpn)
            if page is None:
                page = self._fill(vpn, PROT_W, vaddr, "write")
                if page is None:
                    raise PageFault(vaddr, "write")
            off = vaddr & PAGE_MASK
            page[off:off + chunk] = data[pos:pos + chunk]
            vaddr += chunk
            pos += chunk

    # ------------------------------------------------------------------
    # translation-cache maintenance

    def link_code_page_peers(self, peers: "Tuple[MMU, ...]",
                             shared: Set[int]) -> None:
        """Share one code-page registry with sibling MMUs (SMP).

        All cores of an SMP guest execute out of the same physical
        memory, so a page holding translated code must leave *every*
        core's fast write path — otherwise a store from one core could
        bypass another core's self-modifying-code detection.
        """
        shared.update(self.code_pages)
        self.code_pages = shared
        self._code_peers = tuple(peer for peer in peers
                                 if peer is not self)

    def register_code_page(self, vpn: int) -> None:
        """Mark ``vpn`` as holding translated code.

        Removes it from the fast write path so the next store into it
        triggers ``code_write_hook`` (self-modifying-code detection).
        On an SMP guest the page leaves every sibling core's write path
        too: a peer may hold a cached write translation from before the
        page became code, and a store through it would silently skip
        invalidation.
        """
        self.code_pages.add(vpn)
        self._wr.pop(vpn, None)
        for peer in self._code_peers:
            peer._wr.pop(vpn, None)

    def invalidate_page(self, vpn: int) -> None:
        """Drop every cached translation of ``vpn`` (unmap/protect)."""
        self._rd.pop(vpn, None)
        self._wr.pop(vpn, None)
        self._ex.pop(vpn, None)
        self.tlb.invalidate(vpn)

    def drop_write_cache(self) -> None:
        """Forget cached write translations (checkpoint epoch close).

        The next store to each page re-fills through :meth:`_fill` and
        re-marks its frame written, so a new write epoch observes every
        post-snapshot store.  Read/exec caches and TLB residency are
        untouched; neither feeds any VM statistic.
        """
        self._wr.clear()

    def flush(self) -> None:
        """Drop all cached translations (e.g., address-space switch)."""
        self._rd.clear()
        self._wr.clear()
        self._ex.clear()
        self.tlb.flush()

    def translate(self, vaddr: int, access: str = "read") -> int:
        """Return the physical address for ``vaddr`` (tools/tests)."""
        bit = {"read": PROT_R, "write": PROT_W, "exec": PROT_X}[access]
        entry = self.page_table.lookup(vaddr >> PAGE_SHIFT)
        if entry is None or not entry.prot & bit:
            raise PageFault(vaddr, access)
        return (entry.pfn << PAGE_SHIFT) | (vaddr & PAGE_MASK)
