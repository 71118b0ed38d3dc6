"""The functional virtual machine (the SimNow analogue).

A :class:`Machine` owns the guest's physical memory, page table, MMU,
device bus, CPU state and the two execution engines (binary translator
and interpreter).  It exposes three execution modes:

* ``MODE_FAST``    — full-speed execution out of the translation cache.
* ``MODE_EVENT``   — "sampled mode": every retired instruction is
  reported to an :class:`~repro.vm.events.InstructionSink`.  This is the
  mode a timing simulator consumes and it is roughly an order of
  magnitude slower — the cost asymmetry at the heart of the paper.
* ``MODE_PROFILE`` — full-speed execution plus per-basic-block execution
  counts (Basic Block Vectors for SimPoint) accounted at dispatch
  granularity in :attr:`profile_counts`.

Throughout execution the machine maintains :class:`~repro.vm.stats.VmStats`,
including the three statistics Dynamic Sampling monitors: translation
cache invalidations (CPU), guest exceptions (EXC) and I/O operations
(IO).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.mem import (MMU, PageTable, PhysicalMemory)
from repro.mem.faults import (AlignmentFault, BreakpointTrap, GuestFault,
                              IllegalInstruction, PageFault, SyscallTrap)

from .chain import ChainLinker
from .code_cache import CodeCache, TranslatedBlock
from .events import InstructionSink
from .interpreter import Interpreter
from .state import CpuState
from .stats import VmStats
from .translator import FLAVOR_EVENT, FLAVOR_FAST, MAX_BLOCK, Translator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.devices.bus import Bus

    from .translator import BlockCodegen

MODE_FAST = "fast"
MODE_EVENT = "event"
MODE_PROFILE = "profile"
MODE_INTERP = "interp"

MODES = (MODE_FAST, MODE_EVENT, MODE_PROFILE, MODE_INTERP)


class MachineError(RuntimeError):
    """Host-level error: the guest did something unrecoverable."""


def slow_path_requested() -> bool:
    """True when ``REPRO_SLOW_PATH`` disables the fused fast path.

    The slow path (per-instruction sink calls) is the oracle the fast
    path is validated against; the escape hatch keeps it reachable in
    any environment without code changes.
    """
    return os.environ.get("REPRO_SLOW_PATH", "").strip().lower() \
        in ("1", "true", "yes")


def megablocks_enabled() -> bool:
    """True unless ``REPRO_MEGABLOCKS=0`` disables the megablock tier.

    The escape hatch above the fused tier: with megablocks off, event
    mode dispatches fused superblocks one by one exactly as before the
    tier existed.  Results are bit-identical either way (the chain code
    reproduces the dispatch loop's accounting); only wall-clock moves.
    """
    return os.environ.get("REPRO_MEGABLOCKS", "1").strip().lower() \
        not in ("0", "false", "no", "off")


class Machine:
    """A complete emulated Z64 system."""

    def __init__(self, phys_size: int = 64 * 1024 * 1024,
                 code_cache_capacity: int = 512,
                 code_cache_policy: str = "fifo",
                 tlb_capacity: int = 256,
                 max_block: int = MAX_BLOCK,
                 bus: Optional["Bus"] = None,
                 phys: Optional[PhysicalMemory] = None,
                 page_table: Optional[PageTable] = None,
                 core_id: int = 0) -> None:
        # An SMP guest passes shared phys/page_table objects so every
        # hart executes out of one address space; a plain machine owns
        # fresh ones.
        self.phys = phys if phys is not None else PhysicalMemory(phys_size)
        self.page_table = (page_table if page_table is not None
                           else PageTable())
        #: hart index within an SMP guest (0 for a single-core machine)
        self.core_id = core_id
        #: the guest's harts, in core order: this machine alone, or
        #: the owning SMP guest's list (set by repro.vm.smp) so kernel
        #: invalidation and checkpoints reach every hart
        self.cores: Sequence[Machine] = (self,)
        self.bus = bus
        self.stats = VmStats()
        self.mmu = MMU(self.phys, self.page_table, bus=bus,
                       tlb_capacity=tlb_capacity)
        self.state = CpuState()
        self._sink_box: List[Optional[object]] = [None]
        self.translator = Translator(self.mmu, self._sink_box,
                                     max_block=max_block)
        # Only the FAST cache is the architecturally-visible translation
        # cache: its invalidations feed the CPU monitored statistic.
        self.fast_cache = CodeCache(code_cache_capacity,
                                    on_invalidate=self._count_invalidations,
                                    policy=code_cache_policy)
        # The event cache is host state, not part of the simulated
        # machine: its translations and evictions feed no VM statistic
        # (only the architectural fast cache does), so it is sized
        # generously like the fused-binding caches — capacity-induced
        # retranslation would cost host time without changing results.
        self.event_cache = CodeCache(max(4096, code_cache_capacity),
                                     policy=code_cache_policy)
        self._code_cache_capacity = code_cache_capacity
        self._code_cache_policy = code_cache_policy
        #: fused fast-path dispatch enabled (REPRO_SLOW_PATH=1 disables)
        self.fast_path = not slow_path_requested()
        #: dispatches a block must accumulate in the plain event flavour
        #: before it is promoted to a fused translation.  Fused blocks
        #: compile ~10x slower than plain ones, so cold blocks would pay
        #: more in compilation than they ever save in dispatch; 0 forces
        #: immediate promotion (useful in tests).  The process-wide
        #: compiled-code cache (repro.vm.translator) absorbs most of the
        #: cost after a block's first-ever compilation, so the threshold
        #: only has to gate genuinely cold code.
        self.fast_promote_threshold = 16
        #: fused-flavour bindings:
        #: id(sink) -> (sink, codegen, CodeCache, promotion counts)
        self._fast_bindings: Dict[int, tuple] = {}
        #: megablock tier enabled (REPRO_MEGABLOCKS=0 disables); chains
        #: are bit-identical to fused dispatch, so flipping this can
        #: only change wall-clock, never results
        self.megablocks = megablocks_enabled()
        #: successor observations a promoted (fused) superblock must
        #: accumulate before its megablock chain is built; 0 builds on
        #: the first observed exit (useful in tests)
        self.mega_promote_threshold = 16
        #: megablock linkers, parallel to _fast_bindings:
        #: id(sink) -> ChainLinker (link tables, chains, generation)
        self._chain_linkers: Dict[int, ChainLinker] = {}
        # The interpreter shares the translator's superblock cap so its
        # run dispatches line up one-to-one with translated blocks —
        # required for bit-identical block_dispatches between the fast
        # path and the interpreter oracle (REPRO_SLOW_PATH=1).
        self.interpreter = Interpreter(self.state, self.mmu,
                                       max_run=max_block)
        #: per-block instruction counts accumulated in MODE_PROFILE
        self.profile_counts: Dict[int, int] = {}
        #: syscall/fault handler (see repro.kernel); may be replaced
        self.kernel = None
        self._pending_irqs: List[int] = []
        self.mmu.code_write_hook = self._on_code_write

    # ------------------------------------------------------------------
    # wiring helpers

    def attach_bus(self, bus: "Bus") -> None:
        """Attach the device bus after construction (used by loaders)."""
        self.bus = bus
        self.mmu.bus = bus

    def _count_invalidations(self, dropped: int) -> None:
        self.stats.code_cache_invalidations += dropped

    def register_fast_sink(self, sink: InstructionSink,
                           codegen: "BlockCodegen") -> None:
        """Bind a fused code generator to an event sink.

        MODE_EVENT runs with this sink then dispatch *fused* superblocks
        — fast-flavour semantics with the codegen's timing updates
        inlined — instead of calling ``sink.on_inst`` per instruction,
        unless :func:`slow_path_requested` forces the oracle path.  The
        per-binding translation cache is invisible to :class:`VmStats`:
        only the architectural fast cache feeds the monitored CPU
        statistic, so fast and slow paths see identical vmstat streams.
        Because it is pure host state it is also sized generously —
        fused translations are an order of magnitude more expensive to
        compile than plain flavours, and evicting them would only
        re-pay that cost without changing any simulated result.
        """
        cache = CodeCache(max(4096, self._code_cache_capacity),
                          policy=self._code_cache_policy)
        self._fast_bindings[id(sink)] = (sink, codegen, cache, {})
        self._chain_linkers[id(sink)] = ChainLinker(self, cache, codegen)

    def _on_code_write(self, vpn: int, addr: int) -> None:
        """Self-modifying code: drop the translations that ``addr`` hits.

        Only blocks whose code range contains the written address are
        invalidated; plain data stores that merely share a page with
        code (common in small programs) leave the translations alone.
        """
        dropped = self.fast_cache.invalidate_address(vpn, addr)
        dropped += self.event_cache.invalidate_address(vpn, addr)
        for _sink, _codegen, cache, _counts in \
                self._fast_bindings.values():
            dropped += cache.invalidate_address(vpn, addr)
        # Unlink every megablock chain that enters the written range
        # (and bump its generation so a chain executing right now
        # breaks at its next exit stub).  Chain drops never count
        # toward ``dropped``: chains are host tiering state, invisible
        # to vmstats and to the interpreter's decode caches.
        for linker in self._chain_linkers.values():
            linker.invalidate_address(vpn, addr)
        if dropped:
            self.interpreter.flush_decode_cache()
        else:
            # No translation covered the address, but the interpreter
            # may have decoded instructions there on its own.
            self.interpreter.notice_code_write(vpn)

    def invalidate_code_page(self, vpn: int) -> None:
        """Drop every translation and decoded run touching page ``vpn``.

        Covers the architectural fast cache (whose drops feed the CPU
        monitored statistic), the event cache, every fused-binding cache
        and the interpreter's decode/run caches — used when a code page
        is unmapped or replaced wholesale (munmap, checkpoint restore).
        """
        self.fast_cache.invalidate_page(vpn)
        self.event_cache.invalidate_page(vpn)
        for _sink, _codegen, cache, _counts in \
                self._fast_bindings.values():
            cache.invalidate_page(vpn)
        for linker in self._chain_linkers.values():
            linker.invalidate_page(vpn)
        self.interpreter.flush_decode_cache()

    def flush_code_caches(self) -> None:
        """Flush all translation and decode caches (checkpoint restore).

        Unlike :meth:`invalidate_code_page` this never counts toward the
        CPU monitored statistic — callers erase/restore stats around it.
        Tier-promotion counts are host tiering state tied to the flushed
        translations, so they reset with them: a restored machine starts
        cold, exactly like a fresh ``loadvm``.
        """
        self.fast_cache.flush()
        self.event_cache.flush()
        for _sink, _codegen, cache, counts in \
                self._fast_bindings.values():
            cache.flush()
            counts.clear()
        # Megablock link tables and chain-entry counters are tiering
        # state tied to the flushed translations, exactly like the
        # promotion counts above: a restored machine re-records cold.
        for linker in self._chain_linkers.values():
            linker.flush()
        self.interpreter.flush_decode_cache()

    def snapshot_code_cache(self) -> List[int]:
        """Resident PCs of the architectural fast cache, in insertion
        order (checkpointing).

        The fast cache is guest-visible state: its inserts feed
        ``stats.translations`` and its capacity evictions feed the CPU
        monitored statistic, so a restore must reproduce residency (and
        FIFO order) or continued MODE_FAST execution would re-translate
        — and re-count — blocks an uncheckpointed run still had cached.
        """
        return list(self.fast_cache.blocks())

    def rebuild_code_cache(self, pcs: List[int],
                           reuse: Optional[Dict[int, object]] = None
                           ) -> None:
        """Repopulate the fast cache from a :meth:`snapshot_code_cache`.

        Re-translates each PC in recorded order without touching
        ``stats`` — the caller restores the stats snapshot afterwards,
        which already includes those translations.  Residency never
        exceeds capacity (it was resident at take time), so no eviction
        fires here.  Host-only caches (event, fused) stay flushed.

        ``reuse`` maps PCs to still-valid :class:`TranslatedBlock`
        objects (the caller vouches that the code bytes and page
        mappings backing each are unchanged); matching PCs skip
        re-translation entirely.
        """
        for pc in pcs:
            entry = reuse.get(pc) if reuse else None
            if entry is None:
                entry = self.translator.translate(pc, FLAVOR_FAST, None)
            self.fast_cache.insert(entry)
            for vpn in entry.pages:
                self.mmu.register_code_page(vpn)

    @property
    def halted(self) -> bool:
        """Whether the guest has halted (the SMP machine's test that
        every hart has, over this machine's one hart)."""
        return self.state.halted

    @property
    def total_icount(self) -> int:
        """Guest instructions retired (the SMP machine's sum over
        harts, for this machine's one hart)."""
        return self.state.icount

    def post_interrupt(self, irq: int) -> None:
        """Raise an asynchronous interrupt, delivered at the next
        block-dispatch boundary."""
        self._pending_irqs.append(irq)

    # ------------------------------------------------------------------
    # execution

    def run(self, max_instructions: int, mode: str = MODE_FAST,
            sink: Optional[InstructionSink] = None) -> int:
        """Execute up to ``max_instructions`` guest instructions.

        Returns the number of instructions actually retired.  Every mode
        stops at the first basic-block boundary at or beyond the budget
        (bounded overshoot, the natural stopping grain of a DBT) and
        delivers pending interrupts there; guest faults are delivered to
        :attr:`kernel`.  ``MODE_INTERP`` runs :meth:`_run_interp`.
        """
        if mode not in MODES:
            raise ValueError(f"unknown mode {mode!r}")
        if max_instructions <= 0:
            return 0
        state = self.state
        stats = self.stats
        if mode == MODE_INTERP:
            total = self._run_interp(max_instructions, sink)
            stats.instructions_interp += total
            return total
        event = mode == MODE_EVENT
        profile = mode == MODE_PROFILE
        codegen = None
        counts = None
        if event:
            if sink is None:
                raise ValueError("MODE_EVENT requires a sink")
            self._sink_box[0] = sink.on_inst
            binding = (self._fast_bindings.get(id(sink))
                       if self.fast_path else None)
            if binding is not None:
                codegen = binding[1]
                cache = binding[2]
                counts = binding[3]
            elif not self.fast_path:
                # REPRO_SLOW_PATH=1: the oracle.  Event mode reverts to
                # the per-instruction Interpreter loop — the engine the
                # fast path is validated against.  Dispatch boundaries,
                # icount, vmstats and the sink event stream are
                # bit-identical to the translated paths by construction.
                total = self._run_interp(max_instructions, sink)
                stats.instructions_event += total
                return total
            else:
                cache = self.event_cache
            flavor = FLAVOR_EVENT
        else:
            cache = self.fast_cache
            flavor = FLAVOR_FAST
        # Only architectural-cache translations are a VM statistic: the
        # event/fused caches are host implementation detail, and counting
        # them would make vm_stats depend on which timing path ran.
        architectural = cache is self.fast_cache
        get_block = cache.get
        event_get = self.event_cache.get
        translate = self.translator.translate
        threshold = self.fast_promote_threshold
        remaining = max_instructions
        total = 0
        profile_counts = self.profile_counts
        # Megablock tier (event mode with a fused binding only): chains
        # dispatch ahead of the per-block cache.
        linker = None
        if codegen is not None and self.megablocks:
            linker = self._chain_linkers.get(id(sink))
        mega_get = linker.mega.get if linker is not None else None
        link_prev = -1

        while remaining > 0 and not state.halted:
            if self._pending_irqs:
                self._deliver_interrupt()
                if state.halted:
                    break
                link_prev = -1
            pc = state.pc
            entry = get_block(pc)
            if entry is None and mega_get is not None:
                # Chained heads are evicted from the per-block cache when
                # the chain is built, so the common (unchained) dispatch
                # pays a single lookup and only cache misses consult the
                # megablock table.
                entry = mega_get(pc)
            state.block_progress = 0
            try:
                if entry is None:
                    if counts is not None:
                        # Tiered promotion: run cold blocks in the plain
                        # event flavour (cheap compile, per-instruction
                        # sink calls — the oracle itself, so identical by
                        # construction); compile the fused flavour only
                        # once a block has proven hot.  Invalidation
                        # removes the fused entry, so a re-created block
                        # restarts the count rather than thrashing the
                        # expensive compiler.
                        seen = counts.get(pc, 0) + 1
                        if seen <= threshold:
                            counts[pc] = seen
                            entry = event_get(pc)
                            if entry is None:
                                entry = translate(pc, FLAVOR_EVENT, None)
                                self.event_cache.insert(entry)
                                for vpn in entry.pages:
                                    self.mmu.register_code_page(vpn)
                        else:
                            counts.pop(pc, None)
                    if entry is None:
                        entry = translate(pc, flavor, codegen)
                        cache.insert(entry)
                        if architectural:
                            stats.translations += 1
                        for vpn in entry.pages:
                            self.mmu.register_code_page(vpn)
                        if linker is not None and codegen is not None:
                            # A fused translation is the promotion
                            # moment: start recording this head's
                            # observed successors for chaining.  The
                            # previous-dispatch marker may be stale from
                            # before the recording window opened, so
                            # reset it rather than risk a bogus edge.
                            linker.watch(pc)
                            link_prev = -1
                executed = entry.fn(state, remaining)
                stats.block_dispatches += 1
                state.icount += executed
                if linker is not None and linker.pending:
                    if link_prev in linker.pending:
                        linker.observe(link_prev, state.pc)
                    link_prev = pc
                if profile and executed:
                    profile_counts[pc] = \
                        profile_counts.get(pc, 0) + executed
            except GuestFault as fault:
                executed = state.block_progress
                if profile and executed:
                    profile_counts[pc] = \
                        profile_counts.get(pc, 0) + executed
                state.icount += executed
                extra = self._deliver_fault(fault, entry)
                state.icount += extra
                executed += extra
                link_prev = -1
            total += executed
            remaining -= executed

        if event:
            stats.instructions_event += total
        elif profile:
            stats.instructions_profile += total
        else:
            stats.instructions_fast += total
        return total

    def run_to_completion(self, mode: str = MODE_FAST,
                          sink: Optional[InstructionSink] = None,
                          limit: int = 10**12,
                          chunk: int = 1 << 24) -> int:
        """Run until the guest halts (or ``limit`` instructions)."""
        total = 0
        while not self.state.halted and total < limit:
            total += self.run(min(chunk, limit - total), mode=mode,
                              sink=sink)
        return total

    # ------------------------------------------------------------------
    # fault and interrupt delivery

    def _deliver_fault(self, fault: GuestFault,
                       entry: Optional[TranslatedBlock]) -> int:
        """Handle a guest fault; returns extra retired instructions.

        ``entry`` is the faulting block, or ``None`` when the interpreter
        raised (it leaves ``state.pc`` at the faulting instruction)."""
        state = self.state
        stats = self.stats
        if isinstance(fault, SyscallTrap):
            stats.count_exception("syscall")
            if self.kernel is None:
                raise MachineError("ecall with no kernel attached")
            state.pc = fault.pc
            self.kernel.handle_syscall(self)
            if not state.halted:
                state.pc = fault.pc + 4
            return 1
        if isinstance(fault, BreakpointTrap):
            stats.count_exception("breakpoint")
            if self.kernel is not None and hasattr(self.kernel,
                                                   "handle_breakpoint"):
                self.kernel.handle_breakpoint(self)
            else:
                state.halted = True
            return 1
        if isinstance(fault, PageFault):
            stats.count_exception("page_fault")
            self._restore_fault_pc(entry)
            if self.kernel is not None and \
                    self.kernel.handle_page_fault(self, fault):
                return 0
            raise MachineError(str(fault)) from fault
        if isinstance(fault, AlignmentFault):
            stats.count_exception("alignment_fault")
            self._restore_fault_pc(entry)
            raise MachineError(str(fault)) from fault
        if isinstance(fault, IllegalInstruction):
            stats.count_exception("illegal_instruction")
            raise MachineError(str(fault)) from fault
        raise MachineError(str(fault)) from fault  # pragma: no cover

    def _restore_fault_pc(self, entry: Optional[TranslatedBlock]) -> None:
        """Point ``state.pc`` at the faulting instruction of ``entry``."""
        if entry is not None and getattr(entry, "chained", False):
            # A megablock's fault stub already restored the faulting
            # fragment's PC; reconstructing from the chain head here
            # would point into the wrong fragment.
            return
        if entry is not None and entry.length:
            index = self.state.block_progress % entry.length
            self.state.pc = entry.pc + index * 4

    def _deliver_interrupt(self) -> None:
        irq = self._pending_irqs.pop(0)
        self.stats.count_exception("interrupt")
        if self.kernel is not None and hasattr(self.kernel,
                                               "handle_interrupt"):
            self.kernel.handle_interrupt(self, irq)

    def _run_interp(self, count: int,
                    sink: Optional[InstructionSink]) -> int:
        """Run on the per-instruction interpreter: ``MODE_INTERP``, and
        event mode under ``REPRO_SLOW_PATH=1`` (the oracle).

        Every retired instruction goes through :meth:`Interpreter._exec`
        and, with a ``sink``, one ``sink.on_inst`` call — the reference
        semantics the translated and fused paths must reproduce
        bit-for-bit.  The loop mirrors the translated dispatch loop's
        observable accounting exactly: interrupts are delivered at run
        (block) boundaries, ``block_dispatches`` counts one per
        completed run, the interpreter maintains ``state.icount``
        itself, and a guest fault goes through :meth:`_deliver_fault`
        like every other engine's.
        """
        total = 0
        state = self.state
        interp = self.interpreter
        while total < count and not state.halted:
            if self._pending_irqs:
                self._deliver_interrupt()
                if state.halted:
                    break
            try:
                total += interp.step_run(sink)
                self.stats.block_dispatches += 1
            except GuestFault as fault:
                total += interp.consume_progress()
                extra = self._deliver_fault(fault, None)
                state.icount += extra
                total += extra
        return total
