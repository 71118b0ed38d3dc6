"""Physical memory for the emulated machine.

Physical memory is a flat array of page frames allocated on demand: the
guest-visible physical address space can be large while the host only pays
for frames that are actually touched.  Frames are fixed-size
``bytearray`` objects, so the MMU's hot loads and stores read and write
them in place through precompiled ``struct.Struct`` codecs
(``unpack_from``/``pack_into``) without building a slice.

Dirty-frame tracking: every frame carries a *write generation* — the
value of :attr:`PhysicalMemory.write_epoch` when it was last (possibly)
written.  The MMU marks a frame on every write-path TLB fill, and a
checkpoint closes the epoch with :meth:`begin_write_epoch` after
dropping the MMU's write cache, so a later delta snapshot can skip any
frame whose generation predates its parent checkpoint.  Marking happens
only on the fill path (never per store), so the hot access paths are
unchanged.
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = PAGE_SIZE - 1


class PhysicalMemoryError(Exception):
    """Raised when physical memory is exhausted or misused."""


class PhysicalMemory:
    """Demand-allocated physical memory of ``size`` bytes.

    Frame numbers run from 0 to ``num_frames - 1``.  A frame allocator
    hands out frames linearly; :class:`repro.mem.paging.PageTable` maps
    guest-virtual pages onto them.
    """

    def __init__(self, size: int = 256 * 1024 * 1024):
        if size <= 0 or size & PAGE_MASK:
            raise PhysicalMemoryError(
                f"size must be a positive multiple of {PAGE_SIZE}")
        self.size = size
        self.num_frames = size >> PAGE_SHIFT
        self._frames: Dict[int, bytearray] = {}
        self._next_free = 0
        #: current write epoch; bumped by :meth:`begin_write_epoch`
        self.write_epoch = 1
        #: pfn -> write epoch at which the frame was last marked written
        self._write_gen: Dict[int, int] = {}

    # ------------------------------------------------------------------
    # frame management

    def alloc_frame(self) -> int:
        """Allocate the next free physical frame and return its number."""
        if self._next_free >= self.num_frames:
            raise PhysicalMemoryError("out of physical memory frames")
        frame = self._next_free
        self._next_free += 1
        return frame

    def frame(self, pfn: int) -> bytearray:
        """Return the backing bytearray of frame ``pfn`` (creating it)."""
        if not 0 <= pfn < self.num_frames:
            raise PhysicalMemoryError(f"frame {pfn} out of range")
        data = self._frames.get(pfn)
        if data is None:
            data = bytearray(PAGE_SIZE)
            self._frames[pfn] = data
            self._write_gen[pfn] = self.write_epoch
        return data

    @property
    def frames_touched(self) -> int:
        """Number of frames that have backing storage."""
        return len(self._frames)

    @property
    def next_free(self) -> int:
        """The next frame the linear allocator would hand out."""
        return self._next_free

    # ------------------------------------------------------------------
    # dirty-frame tracking (delta checkpoints)

    def mark_frame_written(self, pfn: int) -> None:
        """Record that ``pfn`` may be written during the current epoch."""
        self._write_gen[pfn] = self.write_epoch

    def begin_write_epoch(self) -> int:
        """Close the current write epoch and start a new one.

        Returns the epoch that just closed: frames whose generation is
        at most that value were not written after this call (provided
        cached write translations are also dropped, so future stores
        re-mark through the fill path).
        """
        closed = self.write_epoch
        self.write_epoch = closed + 1
        return closed

    def frame_dirty_since(self, pfn: int, epoch: int) -> bool:
        """Whether ``pfn`` may have been written after ``epoch`` closed.

        Unknown frames report dirty — correctness never depends on a
        mark having happened, only on clean claims being conservative.
        """
        return self._write_gen.get(pfn, self.write_epoch) > epoch

    # ------------------------------------------------------------------
    # checkpoint hooks

    def snapshot(self) -> Dict:
        """Copy of frame contents + allocator state (checkpointing)."""
        return {
            "frames": {pfn: bytes(data)
                       for pfn, data in sorted(self._frames.items())},
            "next_free": self._next_free,
        }

    def restore(self, snap: Dict) -> set:
        """Install a :meth:`snapshot`-shaped image; returns changed pfns.

        Frames whose bytes already equal the image are left untouched —
        backing object, write generation and all — so restoring a nearby
        checkpoint costs only the frames that differ, and callers can
        use the returned set to keep per-page derived state (translated
        code) for pages the restore did not actually modify.  Frames
        that do change (rewritten, created, or dropped) are marked
        written at the current epoch, so they read as dirty relative to
        any checkpoint taken before the restore.
        """
        frames = self._frames
        target = snap["frames"]
        epoch = self.write_epoch
        changed = set()
        for pfn in [pfn for pfn in frames if pfn not in target]:
            del frames[pfn]
            self._write_gen.pop(pfn, None)
            changed.add(pfn)
        for pfn, data in target.items():
            current = frames.get(pfn)
            if current is not None and current == data:
                continue
            if current is None:
                frames[pfn] = bytearray(data)
            else:
                current[:] = data
            self._write_gen[pfn] = epoch
            changed.add(pfn)
        self._next_free = snap["next_free"]
        return changed

    # ------------------------------------------------------------------
    # physical-address accessors (used by the loader and devices; the hot
    # guest path goes through the MMU, which caches frame bytearrays)

    def read(self, paddr: int, size: int) -> bytes:
        """Read ``size`` bytes at physical address ``paddr``."""
        out = bytearray()
        while size > 0:
            frame = self.frame(paddr >> PAGE_SHIFT)
            offset = paddr & PAGE_MASK
            chunk = min(size, PAGE_SIZE - offset)
            out += frame[offset:offset + chunk]
            paddr += chunk
            size -= chunk
        return bytes(out)

    def write(self, paddr: int, data: bytes) -> None:
        """Write ``data`` at physical address ``paddr``."""
        offset_in_data = 0
        size = len(data)
        while offset_in_data < size:
            frame = self.frame(paddr >> PAGE_SHIFT)
            self._write_gen[paddr >> PAGE_SHIFT] = self.write_epoch
            offset = paddr & PAGE_MASK
            chunk = min(size - offset_in_data, PAGE_SIZE - offset)
            frame[offset:offset + chunk] = \
                data[offset_in_data:offset_in_data + chunk]
            paddr += chunk
            offset_in_data += chunk

    def iter_frames(self) -> Iterator[Tuple[int, bytearray]]:
        """Yield ``(pfn, data)`` for every allocated frame."""
        return iter(sorted(self._frames.items()))
