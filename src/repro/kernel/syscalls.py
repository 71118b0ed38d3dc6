"""Guest kernel layer: syscall handling and demand paging.

The paper runs unmodified OSes inside SimNow; our guest programs instead
run against a thin host-side kernel (syscall-emulation, like user-mode
QEMU).  What matters for the reproduction is that the kernel produces
the same *observable events* an OS would: syscalls and page faults are
guest exceptions (the EXC signal), and I/O syscalls drive devices (the
I/O signal).

Syscall ABI
-----------

* syscall number in ``t7`` (r8)
* arguments in ``t0``-``t2`` (r1-r3)
* return value in ``t0`` (r1); -1 (all ones) on error

======== ==== ==========================================================
EXIT       0  exit(code) — halts the machine
WRITE      1  write(channel, buf, len) -> len   (channel 1 = console)
READ       2  read(channel, buf, len) -> n
BRK        3  brk(addr) -> new break (addr 0 queries)
BLK_READ   4  blk_read(lba, buf, nsect) -> nsect
BLK_WRITE  5  blk_write(lba, buf, nsect) -> nsect
NET_SEND   6  net_send(buf, len) -> len
NET_RECV   7  net_recv(buf, maxlen) -> n
TIME       8  time() -> virtual cycle counter
YIELD      9  yield() — scheduling hint, a no-op here
MAP       10  map(size) -> base of a new demand-paged RW region
UNMAP     11  unmap(base, size) -> 0
CAS       12  cas(addr, expected, new) -> old value at addr
======== ==== ==========================================================

``CAS`` is the guest's only read-modify-write primitive: the kernel
reads the 8-byte word at ``addr``, stores ``new`` iff it equals
``expected``, and returns the old value — atomic by construction
because syscalls execute between quanta of the (serialized) SMP
interleaver.  Lock-based multi-threaded workloads spin on it, which
makes contention visible to Dynamic Sampling through the EXC signal
(every attempt is a syscall trap).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.mem import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, PROT_RW
from repro.mem.faults import PageFault
from repro.vm.machine import Machine, MachineError

SYS_EXIT = 0
SYS_WRITE = 1
SYS_READ = 2
SYS_BRK = 3
SYS_BLK_READ = 4
SYS_BLK_WRITE = 5
SYS_NET_SEND = 6
SYS_NET_RECV = 7
SYS_TIME = 8
SYS_YIELD = 9
SYS_MAP = 10
SYS_UNMAP = 11
SYS_CAS = 12

#: register indices of the ABI
REG_NUM = 8    # t7
REG_A0 = 1     # t0
REG_A1 = 2     # t1
REG_A2 = 3     # t2

CHANNEL_CONSOLE = 1

ERR = (1 << 64) - 1  # -1

SECTOR_SIZE = 512


class Kernel:
    """Host-side guest kernel: syscalls, demand regions, interrupts."""

    def __init__(self, console=None, disk=None, nic=None, timer=None,
                 mmap_base: int = 0x4000_0000):
        self.console = console
        self.disk = disk
        self.nic = nic
        self.timer = timer
        #: demand-paged regions as (start, end) byte ranges
        self._regions: List[Tuple[int, int]] = []
        self.heap_base = 0
        self.brk = 0
        self._mmap_next = mmap_base
        self.syscall_counts = {}
        #: set by the timer interrupt handler (guest-visible via polling)
        self.timer_fired = 0

    # ------------------------------------------------------------------
    # region management

    def add_region(self, start: int, size: int) -> None:
        """Register a demand-paged RW region."""
        self._regions.append((start, start + size))

    def set_heap(self, base: int, initial_size: int = 0) -> None:
        self.heap_base = base
        self.brk = base + initial_size

    def _region_containing(self, addr: int) -> Optional[Tuple[int, int]]:
        if self.heap_base <= addr < self.brk:
            return (self.heap_base, self.brk)
        for start, end in self._regions:
            if start <= addr < end:
                return (start, end)
        return None

    # ------------------------------------------------------------------
    # checkpoint hooks (device refs are wiring, not state)

    def snapshot(self) -> dict:
        return {
            "regions": [tuple(region) for region in self._regions],
            "heap_base": self.heap_base,
            "brk": self.brk,
            "mmap_next": self._mmap_next,
            "syscall_counts": dict(self.syscall_counts),
            "timer_fired": self.timer_fired,
        }

    def restore(self, snap: dict) -> None:
        self._regions = [tuple(region) for region in snap["regions"]]
        self.heap_base = snap["heap_base"]
        self.brk = snap["brk"]
        self._mmap_next = snap["mmap_next"]
        self.syscall_counts = dict(snap["syscall_counts"])
        self.timer_fired = snap["timer_fired"]

    # ------------------------------------------------------------------
    # fault handling

    def handle_page_fault(self, machine: Machine, fault: PageFault) -> bool:
        """Demand-map the faulting page when it lies in a known region."""
        if fault.access == "exec":
            return False
        if self._region_containing(fault.vaddr) is None:
            return False
        vpn = fault.vaddr >> PAGE_SHIFT
        if machine.page_table.lookup(vpn) is not None:
            return False  # protection violation, not a missing page
        machine.page_table.map(vpn, machine.phys.alloc_frame(), PROT_RW)
        return True

    def handle_interrupt(self, machine: Machine, irq: int) -> None:
        self.timer_fired += 1

    def handle_breakpoint(self, machine: Machine) -> None:
        machine.state.halted = True
        machine.state.exit_code = 0xB  # conventional "break" exit

    # ------------------------------------------------------------------
    # syscall dispatch

    def handle_syscall(self, machine: Machine) -> None:
        state = machine.state
        number = state.regs[REG_NUM]
        self.syscall_counts[number] = self.syscall_counts.get(number, 0) + 1
        a0 = state.regs[REG_A0]
        a1 = state.regs[REG_A1]
        a2 = state.regs[REG_A2]

        if number == SYS_EXIT:
            state.exit_code = a0
            state.halted = True
            return
        if number == SYS_WRITE:
            state.regs[REG_A0] = self._sys_write(machine, a0, a1, a2)
        elif number == SYS_READ:
            state.regs[REG_A0] = self._sys_read(machine, a0, a1, a2)
        elif number == SYS_BRK:
            state.regs[REG_A0] = self._sys_brk(a0)
        elif number == SYS_BLK_READ:
            state.regs[REG_A0] = self._sys_blk_read(machine, a0, a1, a2)
        elif number == SYS_BLK_WRITE:
            state.regs[REG_A0] = self._sys_blk_write(machine, a0, a1, a2)
        elif number == SYS_NET_SEND:
            state.regs[REG_A0] = self._sys_net_send(machine, a0, a1)
        elif number == SYS_NET_RECV:
            state.regs[REG_A0] = self._sys_net_recv(machine, a0, a1)
        elif number == SYS_TIME:
            state.regs[REG_A0] = state.cycles
        elif number == SYS_YIELD:
            state.regs[REG_A0] = 0
        elif number == SYS_MAP:
            state.regs[REG_A0] = self._sys_map(a0)
        elif number == SYS_UNMAP:
            state.regs[REG_A0] = self._sys_unmap(machine, a0, a1)
        elif number == SYS_CAS:
            state.regs[REG_A0] = self._sys_cas(machine, a0, a1, a2)
        else:
            raise MachineError(f"unknown syscall {number}")

    # ------------------------------------------------------------------
    # individual syscalls

    def _ensure_mapped(self, machine: Machine, addr: int,
                       size: int) -> bool:
        """Pre-map demand pages covering a kernel-touched buffer."""
        if size <= 0:
            return True
        first = addr >> PAGE_SHIFT
        last = (addr + size - 1) >> PAGE_SHIFT
        for vpn in range(first, last + 1):
            if machine.page_table.lookup(vpn) is not None:
                continue
            if self._region_containing(vpn << PAGE_SHIFT) is None:
                return False
            machine.page_table.map(vpn, machine.phys.alloc_frame(),
                                   PROT_RW)
        return True

    def _count_io(self, machine: Machine, operations: int = 1) -> None:
        machine.stats.io_operations += operations

    def _sys_write(self, machine, channel, buf, length) -> int:
        if channel != CHANNEL_CONSOLE or self.console is None:
            return ERR
        if not self._ensure_mapped(machine, buf, length):
            return ERR
        data = machine.mmu.read_block(buf, length)
        self._count_io(machine)
        return self.console.write_bytes(data)

    def _sys_read(self, machine, channel, buf, length) -> int:
        if channel != CHANNEL_CONSOLE or self.console is None:
            return ERR
        if not self._ensure_mapped(machine, buf, length):
            return ERR
        data = self.console.read_bytes(length)
        machine.mmu.write_block(buf, data)
        self._count_io(machine)
        return len(data)

    def _sys_brk(self, addr: int) -> int:
        if addr:
            if addr < self.heap_base:
                return ERR
            self.brk = addr
        return self.brk

    def _sys_blk_read(self, machine, lba, buf, nsect) -> int:
        if self.disk is None:
            return ERR
        size = nsect * SECTOR_SIZE
        if not self._ensure_mapped(machine, buf, size):
            return ERR
        data = self.disk.read_sectors(lba, nsect)
        machine.mmu.write_block(buf, data)
        self._count_io(machine)
        return nsect

    def _sys_blk_write(self, machine, lba, buf, nsect) -> int:
        if self.disk is None:
            return ERR
        size = nsect * SECTOR_SIZE
        if not self._ensure_mapped(machine, buf, size):
            return ERR
        self.disk.write_sectors(lba, machine.mmu.read_block(buf, size))
        self._count_io(machine)
        return nsect

    def _sys_net_send(self, machine, buf, length) -> int:
        if self.nic is None:
            return ERR
        if not self._ensure_mapped(machine, buf, length):
            return ERR
        sent = self.nic.send(machine.mmu.read_block(buf, length))
        self._count_io(machine)
        return sent

    def _sys_net_recv(self, machine, buf, maxlen) -> int:
        if self.nic is None:
            return ERR
        if not self._ensure_mapped(machine, buf, maxlen):
            return ERR
        packet = self.nic.recv(maxlen)
        machine.mmu.write_block(buf, packet)
        self._count_io(machine)
        return len(packet)

    def _sys_map(self, size: int) -> int:
        size = (size + PAGE_MASK) & ~PAGE_MASK
        if size <= 0:
            return ERR
        base = self._mmap_next
        self._mmap_next += size + PAGE_SIZE  # guard page between regions
        self.add_region(base, size)
        return base

    def _sys_unmap(self, machine: Machine, base: int, size: int) -> int:
        end = base + size
        self._regions = [(s, e) for s, e in self._regions
                         if not (s >= base and e <= end)]
        first = base >> PAGE_SHIFT
        last = (end - 1) >> PAGE_SHIFT
        # The page table is shared across an SMP guest, so unmapping
        # must invalidate every hart's TLB and translation caches — not
        # just the trapping core's.
        for vpn in range(first, last + 1):
            if machine.page_table.lookup(vpn) is not None:
                machine.page_table.unmap(vpn)
                for hart in machine.cores:
                    hart.mmu.invalidate_page(vpn)
                    hart.invalidate_code_page(vpn)
        return 0

    def _sys_cas(self, machine: Machine, addr: int, expected: int,
                 new: int) -> int:
        """Compare-and-swap on a naturally-aligned 8-byte word."""
        if addr & 7:
            return ERR
        if not self._ensure_mapped(machine, addr, 8):
            return ERR
        old = machine.mmu.read_u64(addr)
        if old == expected:
            machine.mmu.write_u64(addr, new & ERR)
        return old
