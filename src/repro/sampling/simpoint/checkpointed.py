"""Checkpoint-based SimPoint simulation.

The paper's SimPoint times are proportional to the *number of points*,
which presumes the methodology restores checkpoints instead of
replaying the program to reach each simulation point (cf. TurboSMARTS
in related work).  :class:`CheckpointedSimPointSampler` implements that
for real: a recorder pass snapshots the system at every chosen point's
warm-up boundary, and the simulation pass restores each snapshot
instead of fast-forwarding.

Snapshots are chained *delta* checkpoints (each parented on the
previous one), so the in-memory ladder costs one full image plus the
dirty pages between points — the classic TurboSMARTS storage trade-off,
reported in the result extras as ``checkpoint_bytes`` (logical) vs
``checkpoint_delta_bytes`` (actually held).  When the driving
controller has an on-disk checkpoint ladder attached, the recorder pass
itself fast-forwards through it, so a warm store collapses the whole
preparation phase to restores.

Costs change accordingly: the simulation pass executes *only* warming +
measurement instructions — no fast-forward at all.  Simulation points
the program ends before (possible when block-granular profiling
overshoots program end) are *dropped and renormalized*: the estimate
divides by the captured weight, and ``dropped_simpoints`` /
``captured_weight`` in the extras surface what was lost.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.kernel import checkpoint as ckpt

from ..base import Sampler
from ..controller import SimulationController
from ..estimators import WeightedClusterEstimator
from .bbv import profile_bbv
from .simpoint import SimPointConfig, select_simpoints_cached


class CheckpointedSimPointSampler(Sampler):
    """SimPoint with checkpoint restore between simulation points."""

    name = "simpoint-ckpt"
    charge_modes = ("warming", "timed")

    def __init__(self, config: SimPointConfig | None = None, **kwargs):
        super().__init__(**kwargs)
        self.config = config or SimPointConfig()

    def sample(self, controller: SimulationController) -> Dict:
        config = self.config
        interval = config.interval_length

        # ---- pass 1: profile (store-memoized), then re-run in fast
        # mode taking delta checkpoints at the warm-up boundaries.
        collector = profile_bbv(controller, interval)
        selection = select_simpoints_cached(controller,
                                            collector.matrix, config)

        snapshots: List[Tuple[int, float, ckpt.Checkpoint]] = []
        dropped = 0
        # Replicate the controller's own class: a multi-core guest must
        # be re-run on an identically interleaved SMP machine or the
        # recorded warm-up boundaries would not line up.
        recorder = type(controller)(
            controller.workload,
            machine_kwargs=controller.machine_kwargs)
        recorder.attach_checkpoints(controller.checkpoints)
        previous = None
        for index, weight in selection.points:
            start = collector.starts[index]
            warm_start = max(0, start - config.warmup_length)
            recorder.fast_forward(warm_start)
            if recorder.finished and recorder.icount < warm_start:
                # the program ended before this point's warm-up window:
                # there is nothing to measure there — drop the point
                # (renormalized below) instead of snapshotting the
                # halted machine
                dropped += 1
                continue
            snapshot = ckpt.take(recorder.system, parent=previous)
            snapshots.append((start, weight, snapshot))
            previous = snapshot
        # Checkpoint creation rides on the profiling/fast machinery; in
        # the paper's accounting it is part of the (uncharged for plain
        # SimPoint) preparation cost — record it for transparency.
        spent = recorder.breakdown
        controller.breakdown.add("profile", spent.fast_instructions,
                                 spent.wall_seconds["fast"])
        for key, value in recorder.checkpoint_stats.items():
            controller.checkpoint_stats[key] += value

        # ---- pass 2: restore, warm, measure — zero fast-forwarding.
        measures: List[Tuple[float, float]] = []
        captured_weight = 0.0
        checkpoint_bytes = 0
        delta_bytes = 0
        for start, weight, snapshot in snapshots:
            checkpoint_bytes += snapshot.memory_bytes
            delta_bytes += snapshot.delta_bytes
            ckpt.restore(controller.system, snapshot)
            warm_gap = start - controller.icount
            if warm_gap > 0:
                controller.run_warming(warm_gap)
            executed, cycles = controller.run_timed(interval)
            if executed:
                measures.append(
                    (weight, executed / cycles if cycles else 0.0))
                captured_weight += weight
            else:
                dropped += 1
        estimator = WeightedClusterEstimator()
        for weight, point_ipc in measures:
            # renormalize by the captured weight so dropped points do
            # not deflate the whole-program estimate
            estimator.add_cluster(
                weight / captured_weight if captured_weight else weight,
                point_ipc)
        return {
            "ipc": estimator.ipc(),
            "timed_intervals": len(measures),
            "num_simpoints": selection.num_points,
            "num_clusters": selection.num_clusters,
            "dropped_simpoints": dropped,
            "captured_weight": captured_weight,
            "checkpoint_bytes": checkpoint_bytes,
            "checkpoint_delta_bytes": delta_bytes,
        }
