"""Cheap functional-pass statistics (phase 1 of the two-phase policies).

The stratified and ranked-set samplers both need to *rank* candidate
intervals before spending any detailed-simulation budget on them.  The
ranking statistic is exactly what the paper's Dynamic Sampler already
monitors for free — the per-interval deltas of the VM's CPU (code-cache
invalidations), EXC (exceptions) and IO (device operations) counters —
collected here in one full-speed functional pass over a replica system.

The pass is deterministic and engine-invariant (the parity tests pin
the full vm_stats snapshot across fused/event/interpreter paths), so
when the controller has a checkpoint ladder attached the profile is
memoized in its store exactly like the BBV profile: a warm store
reconstructs the deltas and charges the identical instruction counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Sequence, Tuple

from repro.vm.stats import MONITORABLE

from .controller import SimulationController

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .simpoint.bbv import BbvCollector


@dataclass
class CheapStatProfile:
    """Per-interval deltas of the monitorable VM statistics."""

    interval_length: int
    #: instruction offset at which each interval began.  Intervals end
    #: on basic-block boundaries, so the grid drifts slightly from
    #: exact multiples of ``interval_length``; the simulation pass must
    #: use these recorded starts (same contract as the BBV collector).
    starts: List[int] = field(default_factory=list)
    #: instructions actually executed per interval
    executed: List[int] = field(default_factory=list)
    #: per-interval ``{"CPU": d, "EXC": d, "IO": d}`` counter deltas
    deltas: List[Dict[str, int]] = field(default_factory=list)

    @property
    def num_intervals(self) -> int:
        return len(self.starts)

    def scores(self, variables: Sequence[str]) -> List[float]:
        """One scalar ranking score per interval.

        Each requested variable's delta stream is normalised by its own
        peak (so a chatty statistic cannot drown a quiet one) and the
        normalised streams are summed.  A variable that never fires
        contributes nothing; all-quiet intervals score 0.0.
        """
        for variable in variables:
            if variable not in MONITORABLE:
                raise KeyError(f"unknown monitored statistic "
                               f"{variable!r}; choose from {MONITORABLE}")
        scores = [0.0] * len(self.deltas)
        for variable in variables:
            peak = max((delta[variable] for delta in self.deltas),
                       default=0)
            if peak <= 0:
                continue
            for i, delta in enumerate(self.deltas):
                scores[i] += delta[variable] / peak
        return scores


def collect_cheap_stats(controller: SimulationController,
                        interval_length: int) -> CheapStatProfile:
    """The full-run cheap-statistics profile of ``controller``'s
    workload.

    Runs on a *separate* identical system (the controller's own
    trajectory is untouched) in the VM's plain fast mode and merges the
    pass's cost into the controller's ``fast`` breakdown.  With a
    checkpoint ladder attached the profile is store-memoized: a hit
    reconstructs the deltas and charges the identical instruction
    count, so the cost model sees the same run either way.
    """
    if interval_length <= 0:
        raise ValueError("interval length must be positive")
    ladder = controller.checkpoints
    use_store = ladder is not None
    artifact = f"cheapstats-{interval_length}"
    if use_store:
        cached = ladder.load_artifact(artifact)
        if cached is not None:
            profile = CheapStatProfile(
                interval_length=interval_length,
                starts=[int(start) for start in cached["starts"]],
                executed=[int(count) for count in cached["executed"]],
                deltas=[{str(name): int(count)
                         for name, count in delta.items()}
                        for delta in cached["deltas"]])
            controller.breakdown.add(
                "fast", int(cached["fast_instructions"]), 0.0)
            controller.checkpoint_stats["profile_cache_hits"] += 1
            return profile
    profile = CheapStatProfile(interval_length=interval_length)
    # Replicate the controller's own class: a multi-core guest must be
    # profiled on an identically interleaved SMP machine.
    replica = type(controller)(
        controller.workload,
        machine_kwargs=controller.machine_kwargs)
    last = {variable: replica.read_stat(variable)
            for variable in MONITORABLE}
    while not replica.finished:
        start = replica.icount
        executed = replica.run_fast(interval_length)
        if executed == 0:
            break
        delta: Dict[str, int] = {}
        for variable in MONITORABLE:
            count = replica.read_stat(variable)
            delta[variable] = count - last[variable]
            last[variable] = count
        profile.starts.append(start)
        profile.executed.append(executed)
        profile.deltas.append(delta)
    spent = replica.breakdown
    controller.breakdown.add("fast", spent.fast_instructions,
                             spent.wall_seconds["fast"])
    if use_store:
        ladder.publish_artifact(artifact, {
            "starts": list(profile.starts),
            "executed": list(profile.executed),
            "deltas": [dict(delta) for delta in profile.deltas],
            "fast_instructions": spent.fast_instructions,
        })
    return profile


def measure_intervals(controller: SimulationController,
                      profile: "CheapStatProfile | BbvCollector",
                      indices: Iterable[int],
                      warmup_length: int) -> Dict[int, Tuple[int, int]]:
    """Detailed pass shared by the two-phase policies and SimPoint.

    ``profile`` gives the interval grid (``starts`` and
    ``interval_length``).  Visits the selected interval indices in
    ascending order, fast-forwarding to each one's warm-up boundary
    (checkpoint-ladder accelerated when attached), warming, then
    measuring one interval with the detailed core.  Returns ``{index: (instructions, cycles)}``
    for every interval that retired at least one instruction; stops
    early if the program finishes under the selection.
    """
    measurements: Dict[int, Tuple[int, int]] = {}
    for index in sorted(set(indices)):
        if controller.finished:
            break
        start = profile.starts[index]
        warm_start = max(0, start - warmup_length)
        controller.fast_forward(warm_start)
        warm_gap = start - controller.icount
        if warm_gap > 0:
            controller.run_warming(warm_gap)
        executed, cycles = controller.run_timed(profile.interval_length)
        if executed:
            measurements[index] = (executed, cycles)
    return measurements
