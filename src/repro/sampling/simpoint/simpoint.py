"""The SimPoint sampling pipeline (profile -> cluster -> simulate).

Pass 1 profiles the complete benchmark in the VM's BBV mode.  The
per-interval Basic Block Vectors are random-projected and clustered
with k-means/BIC; each cluster contributes one *simulation point* (the
interval closest to its centroid) weighted by cluster population.
Pass 2 re-runs the benchmark, fast-forwarding between the chosen
points, warming before each, and measuring each point's IPC with the
detailed core; the whole-program IPC is the weighted combination.

Cost accounting follows the paper's §5.3: the published SimPoint
simulation times are proportional to the *number of points* (the
methodology restores checkpoints rather than replaying the program), so
the ``simpoint`` policy charges only warming + detailed simulation.
The separate ``simpoint+prof`` figure additionally charges the full
profiling pass.  Fast-forward instructions are executed (we do not
implement checkpoints in the VM) but reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from ..base import Sampler
from ..controller import SimulationController, checkpoints_enabled
from ..estimators import WeightedClusterEstimator
from .bbv import profile_bbv
from .kmeans import choose_clustering, random_projection
from .mav import MavCollector, mav_matrix


@dataclass(frozen=True)
class SimPointConfig:
    """Scaled analogue of the paper's K=300 x 1M-interval setup."""

    interval_length: int = 1000
    max_clusters: int = 30
    projection_dims: int = 15
    warmup_length: int = 1000
    bic_threshold: float = 0.9
    seed: int = 0
    #: augment BBVs with memory-access-vector features (page/stride
    #: touch histograms from the MMU fill path) before clustering
    mav: bool = False
    #: scale of the MAV block relative to the (L1-normalised) BBV block
    mav_weight: float = 1.0


@dataclass
class SimPointSelection:
    """The outcome of profiling + clustering."""

    points: List[Tuple[int, float]]   # (interval index, weight)
    num_intervals: int
    num_clusters: int

    @property
    def num_points(self) -> int:
        return len(self.points)


def select_simpoints(vectors_matrix: np.ndarray,
                     config: SimPointConfig) -> SimPointSelection:
    """Cluster BBVs and pick one representative interval per cluster."""
    n = vectors_matrix.shape[0]
    if n == 0:
        return SimPointSelection(points=[], num_intervals=0,
                                 num_clusters=0)
    projected = random_projection(vectors_matrix,
                                  dims=config.projection_dims,
                                  seed=config.seed)
    clustering = choose_clustering(projected, config.max_clusters,
                                   seed=config.seed,
                                   bic_threshold=config.bic_threshold)
    points: List[Tuple[int, float]] = []
    for cluster in range(clustering.k):
        members = np.flatnonzero(clustering.labels == cluster)
        if len(members) == 0:
            continue
        center = clustering.centers[cluster]
        distances = ((projected[members] - center) ** 2).sum(axis=1)
        representative = int(members[int(distances.argmin())])
        weight = len(members) / n
        points.append((representative, weight))
    points.sort()
    return SimPointSelection(points=points, num_intervals=n,
                             num_clusters=clustering.k)


def select_simpoints_cached(controller: SimulationController,
                            matrix_source: Callable[[], np.ndarray],
                            config: SimPointConfig) -> SimPointSelection:
    """:func:`select_simpoints`, memoized in the checkpoint store.

    Projection and clustering are seeded and deterministic, so the
    selection is a pure function of (feature matrix, config): a store
    hit reproduces it exactly while skipping the k-means/BIC search —
    and the feature-matrix build with it (``matrix_source`` is a
    zero-arg callable invoked only on a miss).  MAV-augmented configs
    get their own artifact name — the features differ, so the
    selections must never mix.
    """
    ladder = controller.checkpoints
    use_store = ladder is not None and checkpoints_enabled()
    name = (f"selection-{config.interval_length}-{config.max_clusters}"
            f"-{config.projection_dims}-{config.bic_threshold}"
            f"-{config.seed}")
    if config.mav:
        name += f"-mav{config.mav_weight}"
    if use_store:
        cached = ladder.load_artifact(name)
        if cached is not None:
            return SimPointSelection(
                points=[(int(index), float(weight))
                        for index, weight in cached["points"]],
                num_intervals=cached["num_intervals"],
                num_clusters=cached["num_clusters"])
    selection = select_simpoints(matrix_source(), config)
    if use_store:
        ladder.publish_artifact(name, {
            "points": [[index, weight]
                       for index, weight in selection.points],
            "num_intervals": selection.num_intervals,
            "num_clusters": selection.num_clusters,
        })
    return selection


class SimPointSampler(Sampler):
    """Two-pass SimPoint simulation of one benchmark.

    With ``config.mav`` set the profiling pass also collects
    memory-access-vector histograms and the clusterer sees the
    concatenated BBV+MAV features; the policy then reports itself as
    ``simpoint-mav``.
    """

    name = "simpoint"
    charge_modes = ("warming", "timed")

    def __init__(self, config: SimPointConfig | None = None, **kwargs):
        super().__init__(**kwargs)
        self.config = config or SimPointConfig()
        if self.config.mav:
            self.name = "simpoint-mav"

    def sample(self, controller: SimulationController) -> Dict:
        config = self.config
        # ---- pass 1: profile on a separate, identical system (memoized
        # in the checkpoint store when a ladder is attached) ------------
        mav_features = None
        if config.mav:
            mav = MavCollector()
            collector = profile_bbv(controller, config.interval_length,
                                    mav)
            mav_features = (
                len({vpn for hist in mav.page_hists for vpn in hist})
                + len({bucket for hist in mav.stride_hists
                       for bucket in hist}))

            def matrix_source() -> np.ndarray:
                bbv = collector.matrix()
                block = mav_matrix(mav.page_hists, mav.stride_hists,
                                   weight=config.mav_weight)
                if bbv.size and block.size:
                    return np.hstack([bbv, block])
                return bbv if bbv.size else block
        else:
            collector = profile_bbv(controller, config.interval_length)
            matrix_source = collector.matrix

        selection = select_simpoints_cached(controller, matrix_source,
                                            config)

        # ---- pass 2: fast-forward / warm / measure each point ---------
        estimator = WeightedClusterEstimator()
        interval = config.interval_length
        for index, weight in selection.points:
            # use the profiled interval's *actual* start (the profile
            # grid drifts from exact multiples at block boundaries)
            start = collector.starts[index]
            warm_start = max(0, start - config.warmup_length)
            # checkpoint-accelerated when a ladder is attached; the
            # first gap is the only pristine-fast one, so later gaps
            # fall back to plain execution automatically
            controller.fast_forward(warm_start)
            warm_gap = start - controller.icount
            if warm_gap > 0:
                controller.run_warming(warm_gap)
            executed, cycles = controller.run_timed(interval)
            if executed:
                estimator.add_cluster(weight,
                                      executed / cycles if cycles else 0.0)
            if controller.finished:
                break
        outcome = {
            "ipc": estimator.ipc(),
            "timed_intervals": selection.num_points,
            "num_simpoints": selection.num_points,
            "num_clusters": selection.num_clusters,
            "num_intervals": selection.num_intervals,
        }
        if mav_features is not None:
            outcome["mav_features"] = mav_features
            outcome["mav_weight"] = config.mav_weight
        return outcome
