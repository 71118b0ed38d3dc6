"""The simulation controller: couples the VM to the timing back-end.

This is the paper's §3 infrastructure in one object: it owns a booted
guest system plus one out-of-order core and one functional-warming
sink per hart, and exposes the mode-switching primitives that every
sampling policy is written in terms of:

* :meth:`run_fast`            — full-speed functional execution
* :meth:`run_profile`         — full speed + BBV collection
* :meth:`run_warming`         — event mode feeding functional warming
  (caches + branch predictor updated, no pipeline timing)
* :meth:`run_timed`           — event mode feeding the detailed core;
  returns the interval's (instructions, cycles)

The harts come from the booted machine: a sequential workload boots a
plain :class:`~repro.vm.machine.Machine` (one hart), a parallel one an
:class:`~repro.vm.smp.SmpMachine` whose interleaver routes each hart's
event stream to that hart's own sink.  Controller-level accounting —
intervals, fast-forward targets, the cost model — is kept in **total**
instructions across harts, so every policy runs unchanged on either.
A timed interval reports the total instructions and the *maximum*
per-hart cycle delta (harts run concurrently in simulated time), so
IPC is chip IPC; with one hart these are the interval's own numbers.

Every primitive runs through :meth:`_run`, the one place mode wall
time is read, and :meth:`_account` charges each stretch to the
:class:`ModeBreakdown`, the registry counters and — when a tracer is
active — one ``mode`` span plus a ``vmstats`` snapshot; ``run_timed``
adds one ``warmstate`` summary per hart of its timing core's
caches/TLBs/branch predictor.  With no tracer installed the per-call
cost is a single attribute test.  With ``feedback`` enabled the
estimated virtual time is pushed back into the guest (``rdcycle``,
the timer device), closing the loop the paper describes in §3.1.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.kernel import System
from repro.kernel.checkpoint import Checkpoint
from repro.kernel.checkpoint import restore as _ckpt_restore
from repro.timing import (FunctionalWarmingSink, OutOfOrderCore,
                          TimingConfig)
from repro.timing.codegen import TimedBlockCodegen, WarmingBlockCodegen
from repro.vm import MODE_EVENT, MODE_FAST, MODE_PROFILE, Machine
from repro.workloads import Workload

if TYPE_CHECKING:
    from repro.exec.ckptstore import CheckpointLadder

#: the controller modes, in breakdown order
MODE_NAMES = ("fast", "profile", "warming", "timed")


def checkpoints_enabled() -> bool:
    """Whether checkpoint acceleration is on (``REPRO_CHECKPOINTS=0``
    disables it; results are identical either way, only wall-clock
    changes)."""
    return os.environ.get("REPRO_CHECKPOINTS", "1").strip().lower() \
        not in ("0", "false", "no", "off")


@dataclass
class ModeBreakdown:
    """Instructions and wall seconds spent in each controller mode."""

    fast_instructions: int = 0
    profile_instructions: int = 0
    warming_instructions: int = 0
    timed_instructions: int = 0
    wall_seconds: Dict[str, float] = field(default_factory=lambda: {
        mode: 0.0 for mode in MODE_NAMES})

    def add(self, mode: str, instructions: int, seconds: float) -> None:
        """Charge one stretch of ``mode`` — the only way a mode is
        charged, by the controller and by the replica passes alike."""
        name = f"{mode}_instructions"
        setattr(self, name, getattr(self, name) + instructions)
        self.wall_seconds[mode] += seconds

    @property
    def total_instructions(self) -> int:
        return (self.fast_instructions + self.profile_instructions
                + self.warming_instructions + self.timed_instructions)

    @property
    def total_wall_seconds(self) -> float:
        return sum(self.wall_seconds.values())


class SimulationController:
    """One benchmark run: a guest system plus a timing core per hart."""

    def __init__(self, workload: Workload,
                 timing_config: Optional[TimingConfig] = None,
                 machine_kwargs: Optional[Dict[str, Any]] = None,
                 feedback: bool = False,
                 tracer: Optional[obs.Tracer] = None) -> None:
        self.workload = workload
        self.machine_kwargs = dict(machine_kwargs or {})
        self.system: System = workload.boot(**self.machine_kwargs)
        self.machine = self.system.machine
        #: the guest's harts: an SMP machine's cores, else the machine
        self.harts: Tuple[Machine, ...] = tuple(
            getattr(self.machine, "cores", (self.machine,)))
        self.n_cores = len(self.harts)
        self.timing_config = timing_config or TimingConfig.small()
        self.timing_cores: Tuple[OutOfOrderCore, ...] = tuple(
            OutOfOrderCore(self.timing_config) for _ in self.harts)
        self.warming_sinks: Tuple[FunctionalWarmingSink, ...] = tuple(
            FunctionalWarmingSink(core) for core in self.timing_cores)
        if self.timing_config.fast_path:
            # Fused fast path: event-mode intervals dispatch superblocks
            # with the timing updates compiled in.  Bit-identical to the
            # per-instruction sink path (REPRO_SLOW_PATH=1 restores it).
            for hart, core, sink in zip(self.harts, self.timing_cores,
                                        self.warming_sinks, strict=True):
                hart.register_fast_sink(core, TimedBlockCodegen(core))
                hart.register_fast_sink(sink, WarmingBlockCodegen(sink))
        self.feedback = feedback
        self.breakdown = ModeBreakdown()
        #: checkpoint ladder enabling fast_forward acceleration; None =
        #: plain run_fast
        self.checkpoints: Optional[CheckpointLadder] = None
        #: restore/publish is only sound while the run has done nothing
        #: but MODE_FAST since boot — a restored image cannot splice in
        #: profile/warming/timed history
        self._pristine_fast = True
        #: last checkpoint of this run's ladder walk (delta parent)
        self._ladder_parent: Optional[Checkpoint] = None
        #: pristine fast-forward targets so far — the rung key (see
        #: repro.exec.ckptstore: rungs are only shared between runs
        #: with identical stop histories)
        self._ff_history: List[int] = []
        self.checkpoint_stats: Dict[str, int] = {
            "restores": 0, "published": 0,
            "skipped_instructions": 0, "profile_cache_hits": 0}
        #: estimated virtual cycles of the whole run so far (only
        #: maintained when feedback is on)
        self.virtual_cycles = 0.0
        #: structured event tracer (explicit, or the installed global)
        self.tracer = tracer if tracer is not None else \
            obs.current_tracer()
        self._trace = self.tracer if self.tracer.enabled else None
        self._last_mode: Optional[str] = None
        registry = obs.get_registry()
        self._m_instructions = {
            mode: registry.counter(f"controller.instructions.{mode}")
            for mode in MODE_NAMES}
        self._m_wall = {
            mode: registry.counter(f"controller.wall_seconds.{mode}")
            for mode in MODE_NAMES}
        self._m_switches = registry.counter("controller.mode_switches")
        self._m_throughput = {
            mode: registry.gauge(f"controller.throughput.{mode}")
            for mode in MODE_NAMES}

    # ------------------------------------------------------------------
    # state (total-instruction units; per-core views)

    @property
    def core(self) -> OutOfOrderCore:
        """Hart 0's timing core (a one-hart guest's whole timing)."""
        return self.timing_cores[0]

    @core.setter
    def core(self, core: OutOfOrderCore) -> None:
        self.timing_cores = (core, *self.timing_cores[1:])

    @property
    def warming_sink(self) -> FunctionalWarmingSink:
        """Hart 0's functional-warming sink."""
        return self.warming_sinks[0]

    @warming_sink.setter
    def warming_sink(self, sink: FunctionalWarmingSink) -> None:
        self.warming_sinks = (sink, *self.warming_sinks[1:])

    @property
    def finished(self) -> bool:
        return self.machine.halted

    @property
    def icount(self) -> int:
        """Guest instructions retired so far (all modes, all harts)."""
        return self.machine.total_icount

    def read_stat(self, name: str) -> int:
        """Read one of the monitorable VM statistics (CPU/EXC/IO),
        summed across harts."""
        return sum(hart.stats.monitored(name) for hart in self.harts)

    def read_core_stat(self, core: int, name: str) -> int:
        """Per-hart view of :meth:`read_stat`."""
        if not 0 <= core < self.n_cores:
            raise IndexError(f"guest has no core {core} "
                             f"({self.n_cores} hart(s))")
        return self.harts[core].stats.monitored(name)

    def vm_stats_snapshot(self) -> Dict[str, Any]:
        """The vmstats dict recorded in results and trace events:
        counters summed across harts, exception kinds merged by name
        (per-hart views live in :meth:`per_core_vm_stats`)."""
        per_core = self.per_core_vm_stats()
        aggregate: Dict[str, Any] = {}
        for key in per_core[0]:
            if key == "exception_kinds":
                merged: Dict[str, int] = {}
                for snap in per_core:
                    for kind, count in snap[key].items():
                        merged[kind] = merged.get(kind, 0) + count
                aggregate[key] = merged
            else:
                aggregate[key] = sum(snap[key] for snap in per_core)
        return aggregate

    def per_core_vm_stats(self) -> List[Dict[str, Any]]:
        """Per-hart vmstats snapshots, in core order."""
        return [hart.stats.snapshot() for hart in self.harts]

    # ------------------------------------------------------------------
    # instrumentation (repro.obs)

    def _account(self, mode: str, executed: int, elapsed: float,
                 icount_start: int) -> None:
        """Charge one mode stretch: the breakdown, the registry
        counters and the ``mode``/``vmstats`` trace events."""
        self.breakdown.add(mode, executed, elapsed)
        self._m_instructions[mode].add(executed)
        self._m_wall[mode].add(elapsed)
        if elapsed > 0:
            # per-mode throughput (instructions/sec of the last stretch)
            self._m_throughput[mode].set(executed / elapsed)
        if mode != self._last_mode:
            self._m_switches.inc()
            self._last_mode = mode
        trace = self._trace
        if trace is not None:
            trace.emit(obs.EV_MODE, icount=self.icount, mode=mode,
                       instructions=executed, wall=elapsed,
                       icount_start=icount_start)
            trace.emit(obs.EV_VMSTATS, icount=self.icount,
                       **self.vm_stats_snapshot())

    # ------------------------------------------------------------------
    # checkpoint acceleration

    def attach_checkpoints(self, ladder: Optional[CheckpointLadder]
                           ) -> None:
        """Attach a checkpoint ladder consulted by :meth:`fast_forward`
        and the store-memoized passes; under ``REPRO_CHECKPOINTS=0`` (read
        only here) none is kept, so every pass runs unaccelerated."""
        self.checkpoints = ladder if checkpoints_enabled() else None

    def fast_forward(self, to_icount: int) -> int:
        """Advance functional execution to ``to_icount`` instructions.

        Semantically identical to ``run_fast(to_icount - icount)`` —
        same guest trajectory, same vmstats, same cost-model charge
        (skipped instructions are still *charged* as fast instructions
        per the paper's model).  When a checkpoint ladder is attached,
        each pristine fast-forward stop is a *rung*, keyed by the
        run's full target history: an exact-key hit restores the
        recorded image instead of executing; a miss executes the whole
        gap in one unchunked ``run_fast`` and publishes the result.
        Keying by stop history (rather than icount) is what makes the
        restore bit-identical — translated loop superblocks retire
        many iterations per dispatch, so stopping at an icount the
        original run did not stop at would split dispatches and
        diverge the VM statistics.  Falls back to plain ``run_fast``
        when acceleration is unavailable: no ladder (none attached, or
        ``REPRO_CHECKPOINTS=0``), timing feedback (virtual time would
        diverge from the recorded image), or the run is no longer
        pristine fast-mode (a restore cannot splice mid-run timing
        state).  Returns instructions advanced (restored + executed).
        """
        remaining = to_icount - self.icount
        if remaining <= 0 or self.finished:
            return 0
        ladder = self.checkpoints
        if (ladder is None or self.feedback
                or not self._pristine_fast):
            return self.run_fast(remaining)
        from repro.exec.ckptstore import rung_key  # lazy: import cycle
        self._ff_history.append(to_icount)
        key = rung_key(self._ff_history)
        icount_start = self.icount
        start = time.perf_counter()  # repro: volatile wall-clock telemetry only
        loaded = ladder.load(key)
        if loaded is not None:
            _ckpt_restore(self.system, loaded)
            skipped = self.icount - icount_start
            elapsed = time.perf_counter() - start  # repro: volatile wall-clock telemetry only
            self._ladder_parent = loaded
            self.checkpoint_stats["restores"] += 1
            self.checkpoint_stats["skipped_instructions"] += skipped
            self._account("fast", skipped, elapsed, icount_start)
            if self._trace is not None:
                self._trace.emit(obs.EV_MARK, icount=self.icount,
                                 kind="checkpoint_restore",
                                 rung=key, skipped=skipped)
            return skipped
        advanced = self.run_fast(remaining)
        # publish even when the program halted inside the gap: a
        # restored halted machine behaves exactly like the original
        published = ladder.publish(key, self.system, self._ladder_parent)
        if published is not None:
            self._ladder_parent = published
            self.checkpoint_stats["published"] += 1
        return advanced

    # ------------------------------------------------------------------
    # execution primitives

    def _run(self, mode: str, instructions: int, engine_mode: str,
             sinks: Optional[Sequence[Any]] = None) -> int:
        """Run one stretch of ``mode`` and account it.

        ``sinks`` holds one event sink per hart: a one-hart machine
        takes its single sink, an SMP machine the whole tuple.
        """
        if engine_mode != MODE_FAST:
            self._pristine_fast = False
        sink = sinks
        if sinks is not None and len(sinks) == 1:
            sink = sinks[0]  # Machine.run takes a single sink
        icount_start = self.icount
        start = time.perf_counter()  # repro: volatile wall-clock telemetry only
        executed = self.machine.run(instructions, mode=engine_mode,
                                    sink=sink)
        elapsed = time.perf_counter() - start  # repro: volatile wall-clock telemetry only
        self._account(mode, executed, elapsed, icount_start)
        return executed

    def run_fast(self, instructions: int) -> int:
        return self._run("fast", instructions, MODE_FAST)

    def run_profile(self, instructions: int) -> int:
        return self._run("profile", instructions, MODE_PROFILE)

    def take_profile(self) -> Dict[int, int]:
        """Return and reset the per-block BBV counts, merged across
        harts (the BBV describes what the chip executed)."""
        merged = dict(self.harts[0].profile_counts)
        for hart in self.harts[1:]:
            for pc, count in hart.profile_counts.items():
                merged[pc] = merged.get(pc, 0) + count
        for hart in self.harts:
            hart.profile_counts.clear()
        return merged

    def run_warming(self, instructions: int) -> int:
        if instructions <= 0:
            return 0
        return self._run("warming", instructions, MODE_EVENT,
                         self.warming_sinks)

    def run_timed(self, instructions: int,
                  measure: bool = True) -> Tuple[int, int]:
        """Run one detailed interval on every hart (gang-scheduled).

        Returns ``(total instructions, max per-hart cycle delta)``.
        With ``measure=False`` the pipeline still executes (detailed
        warming, as in SMARTS) but the caller is expected to discard
        the numbers.
        """
        if instructions <= 0:
            return (0, 0)
        cores = self.timing_cores
        checkpoints = [core.checkpoint() for core in cores]
        executed = self._run("timed", instructions, MODE_EVENT, cores)
        per_core_cycles = [
            core.last_retire_cycle - checkpoint[1]
            for core, checkpoint in zip(cores, checkpoints, strict=True)]
        cycles = max(per_core_cycles)
        trace = self._trace
        if trace is not None:
            for index, core in enumerate(cores):
                retired = core.retired - checkpoints[index][0]
                core_cycles = per_core_cycles[index]
                # the core/cores tags follow the decision events' rule
                tags = ({"core": index, "cores": self.n_cores}
                        if self.n_cores > 1 else {})
                branch = core.branch
                trace.emit(obs.EV_WARMSTATE, icount=self.icount, **tags,
                           cycles=core_cycles, instructions=retired,
                           ipc=(retired / core_cycles
                                if core_cycles else 0.0),
                           branches=branch.branches,
                           mispredicts=branch.mispredicts,
                           btb_misses=branch.btb_misses,
                           **core.hierarchy.stats())
        if self.feedback and measure and executed:
            ipc = executed / cycles if cycles else 1.0
            self.advance_virtual_time(executed / max(ipc, 1e-9))
        return (executed, cycles)

    # ------------------------------------------------------------------
    # timing feedback (paper §3.1; disabled for the paper's experiments)

    def advance_virtual_time(self, cycles: float) -> None:
        """Push estimated cycles into every hart's guest-visible clock."""
        self.virtual_cycles += cycles
        now = int(self.virtual_cycles)
        for hart in self.harts:
            hart.state.cycles = now
        if self.system.timer is not None:
            self.system.timer.advance(now)

    def account_functional_time(self, instructions: int,
                                ipc: float) -> None:
        """Extend virtual time over a fast-forwarded stretch."""
        if self.feedback and instructions > 0 and ipc > 0:
            self.advance_virtual_time(instructions / ipc)
