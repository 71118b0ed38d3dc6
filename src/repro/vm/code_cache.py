"""Bounded translation cache for the dynamic binary translator.

Mirrors the structure fast emulators use (SimNow, QEMU, Dynamo's
fragment cache): translated basic blocks keyed by guest PC, a capacity
bound with FIFO eviction, and page-granular invalidation for
self-modifying code and unmapping.

Every block dropped from the cache — by capacity eviction, page
invalidation or an explicit flush — increments the ``invalidations``
counter.  For the machine's FAST cache this counter feeds the **CPU**
statistic that Dynamic Sampling monitors: program phase changes bring new
code into the cache and show up as invalidation bursts (paper §4.1).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Set

from repro.mem.physical import PAGE_SHIFT


class TranslatedBlock:
    """One translated basic block."""

    __slots__ = ("pc", "fn", "length", "pages")

    def __init__(self, pc: int, fn: Callable, length: int,
                 pages: Set[int]):
        self.pc = pc
        self.fn = fn
        self.length = length
        self.pages = pages

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<block pc=0x{self.pc:x} len={self.length}>"


class ChainedBlock(TranslatedBlock):
    """A megablock: the fused bodies of a superblock chain spliced into
    one function, with guarded exits between them.

    ``pc``/``fn`` follow the :class:`TranslatedBlock` contract (the
    dispatch loop calls ``fn(state, budget)`` exactly like any other
    entry); ``length`` is the summed instruction count of the chain and
    ``pages`` the union of every constituent's pages.  ``chain`` holds
    the constituent ``(pc, length)`` pairs in dispatch order — the
    link-set fingerprint used for precise unlinking — and ``chained``
    marks the entry so fault delivery trusts the PC the chain's own
    exit stubs restored instead of reconstructing it from the head.
    """

    __slots__ = ("chain", "chained")

    def __init__(self, pc: int, fn: Callable, length: int,
                 pages: Set[int], chain):
        super().__init__(pc, fn, length, pages)
        self.chain = tuple(chain)
        self.chained = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        pcs = ",".join(f"0x{pc:x}" for pc, _len in self.chain)
        return f"<megablock head=0x{self.pc:x} chain=[{pcs}]>"


class CodeCache:
    """Capacity-bounded store of :class:`TranslatedBlock` objects."""

    #: eviction policies: "fifo" drops the oldest block at capacity;
    #: "flush" drops the whole cache (Dynamo's preemptive-flush
    #: heuristic, which the paper cites as the origin of the
    #: statistics-track-phases observation)
    POLICIES = ("fifo", "flush")

    def __init__(self, capacity: int = 512,
                 on_invalidate: Optional[Callable[[int], None]] = None,
                 policy: str = "fifo"):
        if capacity <= 0:
            raise ValueError("code cache capacity must be positive")
        if policy not in self.POLICIES:
            raise ValueError(f"unknown eviction policy {policy!r}")
        self.capacity = capacity
        self.policy = policy
        #: called with the number of blocks dropped on each invalidation
        #: (the Machine wires this to the CPU monitored statistic)
        self.on_invalidate = on_invalidate
        self._blocks: Dict[int, TranslatedBlock] = {}
        self._page_index: Dict[int, Set[int]] = {}
        #: total blocks dropped for any reason (the CPU signal)
        self.invalidations = 0
        #: breakdown for analysis
        self.capacity_evictions = 0
        self.page_invalidations = 0
        self.flushes = 0

    def _count_invalidations(self, dropped: int) -> None:
        self.invalidations += dropped
        if self.on_invalidate is not None:
            self.on_invalidate(dropped)

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, pc: int) -> bool:
        return pc in self._blocks

    def get(self, pc: int) -> Optional[TranslatedBlock]:
        return self._blocks.get(pc)

    def insert(self, block: TranslatedBlock) -> None:
        """Add a block, evicting per the configured policy at capacity."""
        if block.pc in self._blocks:
            self._remove(block.pc)
        if len(self._blocks) >= self.capacity:
            if self.policy == "flush":
                dropped = len(self._blocks)
                self._blocks.clear()
                self._page_index.clear()
                self._count_invalidations(dropped)
                self.capacity_evictions += dropped
            else:
                victim = next(iter(self._blocks))
                self._remove(victim)
                self._count_invalidations(1)
                self.capacity_evictions += 1
        self._blocks[block.pc] = block
        for vpn in block.pages:
            self._page_index.setdefault(vpn, set()).add(block.pc)

    def discard(self, pc: int) -> bool:
        """Silently drop a block without counting an invalidation.

        Used when a block changes tier (its megablock takes over the
        head PC): the translation is not being thrown away for an
        architectural reason, so it must not perturb the CPU signal.
        Returns whether a block was resident.
        """
        if pc not in self._blocks:
            return False
        self._remove(pc)
        return True

    def _remove(self, pc: int) -> None:
        block = self._blocks.pop(pc)
        for vpn in block.pages:
            pcs = self._page_index.get(vpn)
            if pcs is not None:
                pcs.discard(pc)
                if not pcs:
                    del self._page_index[vpn]

    def invalidate_address(self, vpn: int, addr: int) -> int:
        """Drop blocks on page ``vpn`` whose code range contains ``addr``.

        Used for self-modifying-code detection: a store into a code page
        invalidates exactly the translations it overlaps.  Returns the
        number of blocks dropped.
        """
        pcs = self._page_index.get(vpn)
        if not pcs:
            return 0
        dropped = [pc for pc in pcs
                   if self._blocks[pc].pc <= addr
                   < self._blocks[pc].pc + self._blocks[pc].length * 4]
        for pc in dropped:
            self._remove(pc)
        if dropped:
            self._count_invalidations(len(dropped))
            self.page_invalidations += len(dropped)
        return len(dropped)

    def invalidate_page(self, vpn: int) -> int:
        """Drop every block that overlaps virtual page ``vpn``.

        Returns the number of blocks dropped.
        """
        pcs = self._page_index.get(vpn)
        if not pcs:
            return 0
        dropped = list(pcs)
        for pc in dropped:
            self._remove(pc)
        self._count_invalidations(len(dropped))
        self.page_invalidations += len(dropped)
        return len(dropped)

    def flush(self) -> int:
        """Drop every block (address-space change); returns the count."""
        dropped = len(self._blocks)
        self._blocks.clear()
        self._page_index.clear()
        self._count_invalidations(dropped)
        self.flushes += 1
        return dropped

    def pages_with_code(self) -> Set[int]:
        return set(self._page_index)

    def blocks(self):
        """Resident block PCs in insertion (FIFO-victim) order."""
        return iter(self._blocks)


def block_pages(pc: int, length: int) -> Set[int]:
    """Virtual pages spanned by a block of ``length`` instructions."""
    first = pc >> PAGE_SHIFT
    last = (pc + length * 4 - 1) >> PAGE_SHIFT
    return set(range(first, last + 1))
