"""Basic Block Vector collection (Sherwood et al.).

A BBV is, for one execution interval, the number of instructions
executed in each basic block.  Our VM's PROFILE mode counts
instructions per dispatched block at full speed;
:class:`BbvCollector` slices those counts into per-interval vectors and
packs them into a dense matrix for clustering.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..controller import SimulationController

if TYPE_CHECKING:
    from .mav import MavCollector


class BbvCollector:
    """Collects one Basic Block Vector per fixed-length interval."""

    def __init__(self, interval_length: int):
        if interval_length <= 0:
            raise ValueError("interval length must be positive")
        self.interval_length = interval_length
        self.vectors: List[Dict[int, int]] = []
        #: instruction offset at which each collected interval began.
        #: Intervals end on basic-block boundaries, so the grid drifts
        #: slightly from exact multiples of ``interval_length``; the
        #: simulation pass must use these recorded starts.
        self.starts: List[int] = []

    def collect(self, controller: SimulationController,
                mav: Optional[MavCollector] = None) -> int:
        """Profile the whole remaining run; returns intervals collected.

        With ``mav`` attached to the controller's machine, each
        collected interval also closes one MAV interval, and the fills
        of an interval that collected no BBV are discarded.
        """
        controller.take_profile()  # drop any stale counts
        while not controller.finished:
            start = controller.icount
            executed = controller.run_profile(self.interval_length)
            if executed == 0:
                break
            counts = controller.take_profile()
            if counts:
                self.vectors.append(counts)
                self.starts.append(start)
                if mav is not None:
                    mav.close_interval()
            elif mav is not None:
                mav.discard_pending()
        return len(self.vectors)

    def matrix(self) -> np.ndarray:
        """Dense (intervals x blocks) matrix with L1-normalised rows."""
        if not self.vectors:
            return np.zeros((0, 0))
        block_ids = sorted({pc for vector in self.vectors
                            for pc in vector})
        index = {pc: i for i, pc in enumerate(block_ids)}
        matrix = np.zeros((len(self.vectors), len(block_ids)))
        for row, vector in enumerate(self.vectors):
            for pc, count in vector.items():
                matrix[row, index[pc]] = count
        norms = matrix.sum(axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return matrix / norms


def profile_bbv(controller: SimulationController,
                interval_length: int,
                mav: Optional[MavCollector] = None) -> BbvCollector:
    """The full-run BBV profile of ``controller``'s workload.

    Profiles on a *separate* identical system (the controller's own
    trajectory is untouched) and charges the profiling cost to the
    controller's ``profile`` mode.  With ``mav`` given the same pass
    also fills its memory-access-vector histograms.  When the
    controller has a checkpoint ladder attached, the profile is
    memoized in its store: the profile is a deterministic,
    engine-invariant function of (program, machine config, interval
    length), so a cache hit reconstructs the vectors and charges the
    identical ``profile_instructions`` at near-zero wall-clock — the
    cost model sees the same run either way.  Plain profiles are
    stored as ``profile-N``, MAV-augmented ones as the artifact
    ``mavprofile-N``, so the two never mix.
    """
    ladder = controller.checkpoints
    use_store = ladder is not None
    artifact = f"mavprofile-{interval_length}"
    collector = BbvCollector(interval_length)
    if use_store:
        cached = (ladder.load_profile(interval_length) if mav is None
                  else ladder.load_artifact(artifact))
        if cached is not None:
            collector.vectors = [
                {int(pc): count for pc, count in vector.items()}
                for vector in cached["vectors"]]
            collector.starts = list(cached["starts"])
            if mav is not None:
                mav.page_hists = [
                    {int(vpn): count for vpn, count in hist.items()}
                    for hist in cached["page_hists"]]
                mav.stride_hists = [
                    {int(bucket): count for bucket, count in hist.items()}
                    for hist in cached["stride_hists"]]
            controller.breakdown.add(
                "profile", cached["profile_instructions"], 0.0)
            controller.checkpoint_stats["profile_cache_hits"] += 1
            return collector
    # Profile on a replica of the controller's own class: a multi-core
    # guest must be profiled on an identically interleaved SMP machine.
    profiler = type(controller)(
        controller.workload,
        machine_kwargs=controller.machine_kwargs)
    if mav is None:
        collector.collect(profiler)
    else:
        mav.attach(profiler.harts)
        try:
            collector.collect(profiler, mav)
        finally:
            mav.detach()
    spent = profiler.breakdown
    controller.breakdown.add("profile", spent.profile_instructions,
                             spent.wall_seconds["profile"])
    if use_store:
        payload = {
            "vectors": [{str(pc): count for pc, count in vector.items()}
                        for vector in collector.vectors],
            "starts": list(collector.starts),
            "profile_instructions": spent.profile_instructions,
        }
        if mav is None:
            ladder.publish_profile(interval_length, payload)
        else:
            payload["page_hists"] = [
                {str(vpn): count for vpn, count in hist.items()}
                for hist in mav.page_hists]
            payload["stride_hists"] = [
                {str(bucket): count for bucket, count in hist.items()}
                for hist in mav.stride_hists]
            ladder.publish_artifact(artifact, payload)
    return collector
