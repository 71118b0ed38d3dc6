"""Program loader: installs an assembled program into a guest of one
hart or N, laying out the classic process image once:

* program segments at their assembled addresses (mapped RWX so data and
  code may share pages; self-modifying stores are still caught through
  the translation-cache page registry),
* a demand-paged heap immediately after the highest segment,
* a demand-paged page of process globals at ``GLOBALS_BASE``,
* one demand-paged downward-growing stack per hart below ``STACK_TOP``.
"""

from __future__ import annotations

from typing import Union

from repro.isa import Program
from repro.mem import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE, PROT_RWX
from repro.isa.registers import GP, S3, SP
from repro.vm.machine import Machine
from repro.vm.smp import SmpMachine

from .syscalls import Kernel

STACK_TOP = 0x7F00_0000
STACK_SIZE = 1 * 1024 * 1024
DEFAULT_HEAP_SIZE = 0  # grows via brk

#: a demand-paged page of process-global slots (used by workloads to
#: share working-set base pointers across program phases)
GLOBALS_BASE = 0x3000_0000


def load_program(machine: Union[Machine, SmpMachine], kernel: Kernel,
                 program: Program, stack_top: int = STACK_TOP,
                 stack_size: int = STACK_SIZE) -> None:
    """Map and copy ``program``, set up heap, globals and stacks, and
    start every hart of ``machine`` at the entry point.

    Boot convention (documented for workload authors): hart ``i``'s
    stack top sits ``i * (stack_size + one guard page)`` below
    ``stack_top``, so stacks never silently run into each other; on an
    :class:`~repro.vm.smp.SmpMachine`, ``gp`` (r13) holds the hart id
    and ``s3`` (r12) the core count — the program branches on ``gp``
    to split work.  A plain machine's entry registers stay zero.
    """
    highest = 0
    for segment in program.segments:
        first = segment.base >> PAGE_SHIFT
        last = (segment.end - 1) >> PAGE_SHIFT if segment.data else first
        for vpn in range(first, last + 1):
            if machine.page_table.lookup(vpn) is None:
                machine.page_table.map(vpn, machine.phys.alloc_frame(),
                                       PROT_RWX)
        machine.cores[0].mmu.write_block(segment.base, bytes(segment.data))
        highest = max(highest, segment.end)

    heap_base = (highest + PAGE_MASK) & ~PAGE_MASK
    kernel.set_heap(heap_base, DEFAULT_HEAP_SIZE)
    kernel.add_region(GLOBALS_BASE, PAGE_SIZE)

    smp = isinstance(machine, SmpMachine)
    for index, hart in enumerate(machine.cores):
        top = stack_top - index * (stack_size + PAGE_SIZE)
        kernel.add_region(top - stack_size, stack_size)
        state = hart.state
        state.reset(pc=program.entry)
        # Stack pointer starts 16-byte aligned just below the top page edge.
        state.regs[SP] = (top - 16) & ~0xF
        if smp:
            state.regs[GP] = index
            state.regs[S3] = len(machine.cores)
    machine.kernel = kernel
