"""Multi-core guest: N harts over one shared physical memory.

An :class:`SmpMachine` owns ``n_cores`` :class:`~repro.vm.machine.Machine`
instances that share a single :class:`~repro.mem.PhysicalMemory`, page
table and device bus, while keeping *per-core* everything that a real
hart owns privately: CPU state, software TLB and MMU translation
caches, translation caches (architectural fast cache, event cache,
fused bindings), interpreter decode caches, BBV profile counts and
:class:`~repro.vm.stats.VmStats` monitors.

Every hart's ``cores`` is the guest's hart list (a plain
:class:`~repro.vm.machine.Machine`'s is ``(self,)``), so code that
walks ``machine.cores`` treats one hart as the case N = 1.

Interleaving contract (determinism)
-----------------------------------

:meth:`SmpMachine.run` interprets its budget as a **total** instruction
count across all cores — the same unit the sampling layer's intervals,
fast-forward targets and SimPoint offsets are written in — and
dispenses it round-robin in fixed quanta (:data:`DEFAULT_QUANTUM`
instructions), always starting each call's rotation at core 0 and
visiting cores in ascending index order, skipping halted cores.  Each
quantum is executed by the per-core engine with its usual stopping
grain (first block boundary at or beyond the quantum), so the schedule
is a pure function of the guest program and the budget sequence —
identical across the fused, per-instruction and interpreter engines,
which share the same block-boundary rules.  That makes multi-core runs
exactly as reproducible as single-core ones: per-core ``icount``,
``block_dispatches`` and vmstats streams are bit-identical across
engines and hosts.

Cross-core coupling
-------------------

* **Self-modifying code** — all cores share one ``code_pages``
  registry, and a store into a code page from *any* core invalidates
  the overlapping translations of *every* core (see
  :meth:`~repro.mem.mmu.MMU.link_code_page_peers`).
* **I/O attribution** — the shared bus charges ``io_operations`` to
  the core whose quantum is running; the interleaver points
  ``bus.stats`` at the active core's monitor at each switch.
* **Memory** — ordinary loads/stores hit the shared frames directly;
  because quanta are serialized on the host, the guest observes a
  sequentially-consistent interleaving at quantum granularity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Set

from repro.mem import PageTable, PhysicalMemory

from .machine import MODE_FAST, Machine
from .state import CpuState
from .translator import MAX_BLOCK

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devices.bus import Bus
    from repro.kernel.syscalls import Kernel

__all__ = ["DEFAULT_QUANTUM", "SmpMachine"]

#: round-robin quantum in guest instructions.  Small enough that the
#: paper-scale sampling intervals (1k instructions at the tiny scale)
#: interleave every core several times per interval; large enough that
#: per-switch overhead stays negligible.
DEFAULT_QUANTUM = 100


class SmpMachine:
    """N-hart guest over one shared physical memory.

    Exposes the same execution surface as :class:`Machine` (``run``,
    ``run_to_completion``, ``state``, ``kernel`` …) so the controller
    and kernel layers work against either, plus per-core access via
    :attr:`cores`.
    """

    def __init__(self, n_cores: int = 2,
                 phys_size: int = 64 * 1024 * 1024,
                 code_cache_capacity: int = 512,
                 code_cache_policy: str = "fifo",
                 tlb_capacity: int = 256,
                 max_block: int = MAX_BLOCK,
                 quantum: int = DEFAULT_QUANTUM):
        if n_cores < 1:
            raise ValueError("n_cores must be >= 1")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.n_cores = n_cores
        self.quantum = quantum
        self.phys = PhysicalMemory(phys_size)
        self.page_table = PageTable()
        self.bus: Optional["Bus"] = None
        self.cores: List[Machine] = [
            Machine(code_cache_capacity=code_cache_capacity,
                    code_cache_policy=code_cache_policy,
                    tlb_capacity=tlb_capacity,
                    max_block=max_block,
                    phys=self.phys,
                    page_table=self.page_table,
                    core_id=index)
            for index in range(n_cores)]
        # One shared code-page registry + cross-core SMC fan-out: a
        # store into translated code from any hart must invalidate the
        # overlapping translations on every hart.
        shared_code_pages: Set[int] = set()
        mmus = tuple(core.mmu for core in self.cores)
        for core in self.cores:
            core.cores = self.cores
            core.mmu.link_code_page_peers(mmus, shared_code_pages)
            core.mmu.code_write_hook = self._on_code_write

    # ------------------------------------------------------------------
    # wiring

    def attach_bus(self, bus: "Bus") -> None:
        """Attach the shared device bus to every core."""
        self.bus = bus
        for core in self.cores:
            core.attach_bus(bus)

    @property
    def kernel(self) -> Optional["Kernel"]:
        return self.cores[0].kernel

    @kernel.setter
    def kernel(self, kernel: Optional["Kernel"]) -> None:
        for core in self.cores:
            core.kernel = kernel

    def _on_code_write(self, vpn: int, addr: int) -> None:
        """SMC fan-out: invalidate the written address on every core."""
        for core in self.cores:
            core._on_code_write(vpn, addr)

    def _focus(self, core: Machine) -> None:
        """Attribute upcoming bus I/O to ``core`` (quantum switch)."""
        bus = self.bus
        if bus is not None and bus.stats is not core.stats:
            bus.stats = core.stats

    # ------------------------------------------------------------------
    # aggregate state

    @property
    def state(self) -> CpuState:
        """Core 0's CPU state (exit code, convenience accessors)."""
        return self.cores[0].state

    @property
    def halted(self) -> bool:
        return all(core.state.halted for core in self.cores)

    @property
    def total_icount(self) -> int:
        """Guest instructions retired across all cores (the unit every
        sampling interval and fast-forward target is expressed in)."""
        return sum(core.state.icount for core in self.cores)

    # ------------------------------------------------------------------
    # maintenance fan-out (checkpoint restore, unmap)

    def invalidate_code_page(self, vpn: int) -> None:
        for core in self.cores:
            core.invalidate_code_page(vpn)

    def flush_code_caches(self) -> None:
        for core in self.cores:
            core.flush_code_caches()

    @property
    def megablocks(self) -> bool:
        """Megablock tier enabled (uniform across harts)."""
        return self.cores[0].megablocks

    @megablocks.setter
    def megablocks(self, value: bool) -> None:
        for core in self.cores:
            core.megablocks = value

    @property
    def mega_promote_threshold(self) -> int:
        return self.cores[0].mega_promote_threshold

    @mega_promote_threshold.setter
    def mega_promote_threshold(self, value: int) -> None:
        for core in self.cores:
            core.mega_promote_threshold = value

    # ------------------------------------------------------------------
    # execution

    def _per_core_sinks(self, sink: Any) -> Sequence[Any]:
        """Normalize ``sink`` to one sink per core.

        Event-mode callers pass a sequence of per-core sinks (each
        timing core consumes exactly one hart's instruction stream); a
        single sink object is broadcast, and ``None`` (fast/profile
        modes) stays ``None`` everywhere.
        """
        if sink is None:
            return (None,) * self.n_cores
        if isinstance(sink, (list, tuple)):
            if len(sink) != self.n_cores:
                raise ValueError(
                    f"expected {self.n_cores} per-core sinks, "
                    f"got {len(sink)}")
            return sink
        return (sink,) * self.n_cores

    def run(self, max_instructions: int, mode: str = MODE_FAST,
            sink: Any = None) -> int:
        """Execute up to ``max_instructions`` *total* instructions,
        dispensed round-robin across live cores in fixed quanta.

        Returns total instructions retired.  Each quantum stops at the
        per-core engine's usual block-boundary grain, so the interleaving
        is deterministic and engine-independent.  The rotation restarts
        at core 0 on every call — budget boundaries are schedule
        boundaries, which keeps interval accounting coherent across
        sampling primitives.
        """
        if max_instructions <= 0:
            return 0
        sinks = self._per_core_sinks(sink)
        quantum = self.quantum
        remaining = max_instructions
        total = 0
        while remaining > 0:
            progressed = False
            for index, core in enumerate(self.cores):
                if remaining <= 0:
                    break
                if core.state.halted:
                    continue
                self._focus(core)
                executed = core.run(min(quantum, remaining), mode=mode,
                                    sink=sinks[index])
                if executed:
                    progressed = True
                    total += executed
                    remaining -= executed
            if not progressed:
                # every live core made zero progress — all halted
                break
        return total

    def run_to_completion(self, mode: str = MODE_FAST, sink: Any = None,
                          limit: int = 10**12,
                          chunk: int = 1 << 24) -> int:
        """Run until every core halts (or ``limit`` total instructions)."""
        total = 0
        while not self.halted and total < limit:
            executed = self.run(min(chunk, limit - total), mode=mode,
                                sink=sink)
            if executed == 0:
                break
            total += executed
        return total
