"""Full-system checkpoints with copy-on-write delta snapshots.

The paper's SimPoint timing results presume checkpoint restore (its
per-benchmark times are proportional to the number of simulation points,
not to program length), and TurboSMARTS — cited in related work — builds
SMARTS entirely on checkpoints.  This module provides the primitive: a
snapshot of a running :class:`~repro.kernel.system.System` (one CPU
snapshot per hart, physical memory, page tables, kernel bookkeeping,
devices) that can be restored onto the same system later, resuming
execution bit-identically.  A guest of one hart is the case N = 1: the
layout is the same for any hart count.

Snapshots are *delta* snapshots: every frame is identified by its
content hash, and ``take(system, parent=...)`` stores blob bytes only
for frames that are dirty relative to the parent (per-frame write
generations in :class:`~repro.mem.physical.PhysicalMemory`) or whose
content is not already resolvable through the parent chain.  Restore
composes base + deltas back into the full frame set, so a delta
checkpoint restores bit-identically to a full one.

Checkpoints capture *guest* state plus the one piece of
architecturally-visible host state: the fast translation cache, whose
inserts and capacity evictions feed monitored statistics.  Its resident
PCs are recorded (in FIFO order) and rebuilt on restore; the other
host-side caches (MMU translation dicts, event/fused code caches,
decoded instructions) are flushed and rebuilt lazily — exactly what a
real VM does after ``loadvm``.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .system import System


def _hash_frame(data: bytes) -> str:
    return hashlib.sha256(bytes(data)).hexdigest()


@dataclass
class Checkpoint:
    """One full-system snapshot (opaque; create via :func:`take`).

    Frame contents live in :attr:`blobs` keyed by content hash;
    :attr:`frame_hashes` maps each physical frame to its hash.  A delta
    checkpoint stores only blobs absent from its :attr:`parent` chain —
    :meth:`resolve_blob` walks the chain on demand.
    """

    frame_hashes: Dict[int, str]
    blobs: Dict[str, bytes]
    next_free_frame: int
    page_table: Dict[int, Tuple[int, int]]
    #: one snapshot per hart, in core order, with keys ``cpu``,
    #: ``stats``, ``profile_counts``, ``pending_irqs`` and ``fast_cache``
    cores: List[dict]
    kernel: dict
    console: dict
    disk: dict
    timer: dict
    nic: dict
    parent: Optional["Checkpoint"] = field(default=None, repr=False,
                                           compare=False)
    #: write epoch closed when this checkpoint was taken/restored, valid
    #: against the live PhysicalMemory identified by :attr:`phys_token`
    phys_epoch: int = field(default=0, compare=False)
    phys_token: int = field(default=0, compare=False)
    extra: dict = field(default_factory=dict)

    def resolve_blob(self, digest: str) -> bytes:
        """Frame bytes for ``digest``, walking the parent chain."""
        node = self
        while node is not None:
            blob = node.blobs.get(digest)
            if blob is not None:
                return blob
            node = node.parent
        raise KeyError(f"unresolvable frame blob {digest[:12]}")

    def has_blob(self, digest: str) -> bool:
        node = self
        while node is not None:
            if digest in node.blobs:
                return True
            node = node.parent
        return False

    @property
    def frames(self) -> Dict[int, bytes]:
        """The full frame image ``{pfn: bytes}`` (materialized)."""
        return {pfn: self.resolve_blob(digest)
                for pfn, digest in sorted(self.frame_hashes.items())}

    @property
    def memory_bytes(self) -> int:
        """Logical size of the full memory image."""
        return sum(len(self.resolve_blob(digest))
                   for digest in self.frame_hashes.values())

    @property
    def delta_bytes(self) -> int:
        """Bytes stored *by this checkpoint* (its own blobs only)."""
        return sum(len(blob) for blob in self.blobs.values())


def take(system: "System", parent: Optional[Checkpoint] = None
         ) -> Checkpoint:
    """Snapshot ``system`` (a :class:`repro.kernel.system.System`).

    With ``parent`` (an earlier checkpoint of the *same live system*,
    or any checkpoint whose blobs should be deduplicated against), only
    frames dirty since the parent's write epoch are hashed and stored;
    clean frames reuse the parent's recorded hash without touching
    their bytes.  Closing the write epoch (and dropping the MMU's
    cached write translations) happens last, so this checkpoint can in
    turn serve as a delta parent.
    """
    machine = system.machine
    phys = machine.phys
    kernel = system.kernel
    harts = machine.cores

    # Clean-frame shortcut is only sound against the same live memory
    # the parent's epoch was recorded on; content-hash dedup below
    # works against any parent chain (including store-loaded ones).
    # The frames are shared by every hart and scanned once.
    same_phys = parent is not None and parent.phys_token == id(phys)

    frame_hashes: Dict[int, str] = {}
    blobs: Dict[str, bytes] = {}
    for pfn, data in phys.iter_frames():
        if (same_phys and pfn in parent.frame_hashes
                and not phys.frame_dirty_since(pfn, parent.phys_epoch)):
            frame_hashes[pfn] = parent.frame_hashes[pfn]
            continue
        digest = _hash_frame(data)
        frame_hashes[pfn] = digest
        if digest not in blobs and not (parent is not None
                                        and parent.has_blob(digest)):
            blobs[digest] = bytes(data)

    checkpoint = Checkpoint(
        frame_hashes=frame_hashes,
        blobs=blobs,
        next_free_frame=phys.next_free,
        page_table=machine.page_table.snapshot(),
        cores=[{
            "cpu": hart.state.snapshot(),
            "stats": copy.deepcopy(vars(hart.stats)),
            "profile_counts": dict(hart.profile_counts),
            "pending_irqs": list(hart._pending_irqs),
            "fast_cache": hart.snapshot_code_cache(),
        } for hart in harts],
        kernel=kernel.snapshot(),
        console=system.console.snapshot(),
        disk=system.disk.snapshot(),
        timer=system.timer.snapshot(),
        nic=system.nic.snapshot(),
        parent=parent,
    )
    # Close the epoch *after* scanning: frames written from here on are
    # dirty relative to this checkpoint.  Every hart's cached write
    # translations must be dropped so the next store to each page goes
    # through the fill path again and re-marks its frame — the dirty
    # generations are shared, the write caches are not.
    checkpoint.phys_token = id(phys)
    checkpoint.phys_epoch = phys.begin_write_epoch()
    for hart in harts:
        hart.mmu.drop_write_cache()
    return checkpoint


def restore(system: "System", checkpoint: Checkpoint) -> None:
    """Restore ``checkpoint`` onto ``system`` (created from the same
    program, with as many harts); execution resumes exactly where the
    snapshot was taken."""
    machine = system.machine
    phys = machine.phys
    kernel = system.kernel
    harts = machine.cores
    if len(checkpoint.cores) != len(harts):
        raise ValueError(
            f"checkpoint holds {len(checkpoint.cores)} core "
            f"snapshot(s), machine has {len(harts)} core(s)")

    # Stash the resident fast-cache blocks before flushing: a block
    # whose code pages come through the restore with identical mapping
    # and identical bytes would re-translate to the same thing, so it
    # can be reinserted as-is (restoring adjacent checkpoints of one
    # ladder shares almost all code pages).  Per hart: each core owns
    # its architectural fast cache.
    stashes = [{pc: hart.fast_cache.get(pc)
                for pc in hart.fast_cache.blocks()}
               for hart in harts]
    old_mapping = machine.page_table.snapshot()

    # guest memory + page table (public hooks)
    changed_pfns = phys.restore({"frames": checkpoint.frames,
                                 "next_free": checkpoint.next_free_frame})
    machine.page_table.restore(checkpoint.page_table)
    new_mapping = checkpoint.page_table

    def _page_intact(vpn: int) -> bool:
        entry = new_mapping.get(vpn)
        if old_mapping.get(vpn) != entry:
            return False
        return entry is None or entry[0] not in changed_pfns

    reuses = []
    for stash in stashes:
        reuse = {}
        for pc, entry in stash.items():
            # The page beyond the block matters too: an originally
            # page-fault-cut block would decode longer if that page
            # became mapped, so reuse demands it is equally (un)mapped
            # and intact.
            if all(_page_intact(vpn)
                   for vpn in (*entry.pages, max(entry.pages) + 1)):
                reuse[pc] = entry
        reuses.append(reuse)

    # Host-side caches are stale: flush everything, then rebuild each
    # architectural fast cache to its recorded residency.  Both happen
    # *before* restoring statistics, so the flush-induced invalidation
    # counts are erased and the monitored statistics resume exactly as
    # saved (the rebuild re-translations are already included in the
    # saved counters).
    for hart in harts:
        hart.mmu.flush()
    harts[0].mmu.code_pages.clear()  # shared across harts
    machine.flush_code_caches()

    # CPU + per-core machine bookkeeping
    for hart, snap, reuse in zip(harts, checkpoint.cores, reuses):
        hart.state.restore(snap["cpu"])
        hart.rebuild_code_cache(snap["fast_cache"], reuse=reuse)
        for key, value in copy.deepcopy(snap["stats"]).items():
            setattr(hart.stats, key, value)
        hart.profile_counts.clear()
        hart.profile_counts.update(snap["profile_counts"])
        hart._pending_irqs[:] = snap["pending_irqs"]

    # kernel + devices (public hooks)
    kernel.restore(checkpoint.kernel)
    system.console.restore(checkpoint.console)
    system.disk.restore(checkpoint.disk)
    system.timer.restore(checkpoint.timer)
    system.nic.restore(checkpoint.nic)

    # The restored image *is* current memory now: stamp the checkpoint
    # as a valid delta parent for the live physical memory (every frame
    # was marked at the current epoch by phys.restore; close it).
    checkpoint.phys_token = id(phys)
    checkpoint.phys_epoch = phys.begin_write_epoch()
    for hart in harts:
        hart.mmu.drop_write_cache()
