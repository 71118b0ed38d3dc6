"""Sampling framework: the paper's contribution plus the baselines.

* :class:`DynamicSampler` — the paper's Dynamic Sampling (Algorithm 1)
* :class:`SmartsSampler` — SMARTS systematic sampling baseline
* :class:`SimPointSampler` — SimPoint profiling/clustering baseline
  (MAV-augmented features behind ``SimPointConfig.mav``)
* :class:`StratifiedSampler` — two-phase stratified sampling over
  cheap VM statistics (Neyman-allocated timed budget)
* :class:`RankedSetSampler` — ranked-set sampling with repeated
  subsampling (per-benchmark IPC confidence intervals)
* :class:`FullTiming` — the full-timing reference
* :class:`SimulationController` — VM <-> timing coupling & mode switching
"""

from .base import PolicyResult, Sampler
from .cheapstats import (CheapStatProfile, collect_cheap_stats,
                         measure_intervals)
from .controller import ModeBreakdown, SimulationController
from .costmodel import CostModel, DEFAULT_COST_MODEL
from .dynamic import (DynamicSampler, DynamicSamplingConfig, sweep_configs)
from .estimators import (MeanCpiEstimator, RepeatedSubsampleEstimator,
                         SegmentedIpcEstimator, WeightedClusterEstimator,
                         accuracy_error, speedup)
from .full import FullTiming
from .presets import (FIGURE5_DYNAMIC_CONFIGS, INTERVAL_LENGTHS,
                      INTERVAL_UNIT, RANKEDSET_PRESET, SIMPOINT_MAV_PRESET,
                      SIMPOINT_PRESET, SMARTS_PRESET, STRATIFIED_PRESET,
                      WARMUP_LENGTH, dynamic_config, figure6_policy_grid,
                      full_sweep, rankedset_config, stratified_config)
from .rankedset import (RankedSetConfig, RankedSetSampler,
                        ranked_set_subsamples)
from .simpoint import (BbvCollector, CheckpointedSimPointSampler,
                       MavCollector, SimPointConfig, SimPointSampler,
                       SimPointSelection, mav_matrix, select_simpoints)
from .smarts import SmartsConfig, SmartsSampler
from .smp import SmpSimulationController, make_controller
from .stratified import (StratifiedConfig, StratifiedSampler,
                         neyman_allocation, quantile_strata,
                         systematic_pick)

__all__ = [
    "PolicyResult", "Sampler",
    "ModeBreakdown", "SimulationController",
    "SmpSimulationController", "make_controller",
    "CostModel", "DEFAULT_COST_MODEL",
    "CheapStatProfile", "collect_cheap_stats", "measure_intervals",
    "DynamicSampler", "DynamicSamplingConfig", "sweep_configs",
    "MeanCpiEstimator", "RepeatedSubsampleEstimator",
    "SegmentedIpcEstimator",
    "WeightedClusterEstimator", "accuracy_error", "speedup",
    "FullTiming",
    "FIGURE5_DYNAMIC_CONFIGS", "INTERVAL_LENGTHS", "INTERVAL_UNIT",
    "RANKEDSET_PRESET", "SIMPOINT_MAV_PRESET",
    "SIMPOINT_PRESET", "SMARTS_PRESET", "STRATIFIED_PRESET",
    "WARMUP_LENGTH",
    "dynamic_config", "figure6_policy_grid", "full_sweep",
    "rankedset_config", "stratified_config",
    "RankedSetConfig", "RankedSetSampler", "ranked_set_subsamples",
    "BbvCollector", "CheckpointedSimPointSampler", "MavCollector",
    "SimPointConfig", "SimPointSampler",
    "SimPointSelection", "mav_matrix",
    "select_simpoints",
    "SmartsConfig", "SmartsSampler",
    "StratifiedConfig", "StratifiedSampler", "neyman_allocation",
    "quantile_strata", "systematic_pick",
]
