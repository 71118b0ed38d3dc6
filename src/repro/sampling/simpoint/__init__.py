"""SimPoint: BBV profiling, k-means clustering, point selection."""

from .bbv import BbvCollector, profile_bbv
from .checkpointed import CheckpointedSimPointSampler
from .kmeans import (KmeansResult, choose_clustering, kmeans,
                     random_projection)
from .mav import (MavCollector, mav_matrix, stride_bucket,
                  touch_histograms)
from .simpoint import (SimPointConfig, SimPointSampler, SimPointSelection,
                       select_simpoints, select_simpoints_cached)

__all__ = [
    "BbvCollector", "profile_bbv",
    "CheckpointedSimPointSampler",
    "KmeansResult", "choose_clustering", "kmeans", "random_projection",
    "MavCollector", "mav_matrix",
    "stride_bucket", "touch_histograms",
    "SimPointConfig", "SimPointSampler", "SimPointSelection",
    "select_simpoints", "select_simpoints_cached",
]
