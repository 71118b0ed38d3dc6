"""Experiment harness shared by the benchmark targets and examples."""

from .experiments import (CACHE_VERSION, QUICK_SUITE, ResultStore,
                          default_benchmarks, default_store,
                          fetch_results, make_spec, modeled_seconds_for,
                          normalize_policy, policy_factory, run_policy,
                          run_suite, smp_fingerprint)
from .figures import (FIGURE5_POLICIES, FIGURE6_POLICIES,
                      FRONTIER_POLICIES, PAPER_FIGURE5,
                      PARALLEL_FIGURE_POLICIES, build_figure2,
                      build_figure4, build_figure5, build_figure6,
                      build_figure7, build_figure8, build_figure9,
                      build_frontier, build_parallel_figure,
                      build_table1, build_table2, sweep_policies)
from .traces import (IntervalTrace, PhaseComparison,
                     collect_interval_trace, compare_phase_detection,
                     phase_match_score)

__all__ = [
    "CACHE_VERSION", "QUICK_SUITE", "ResultStore", "default_benchmarks",
    "default_store", "fetch_results", "make_spec", "modeled_seconds_for",
    "normalize_policy", "policy_factory", "run_policy", "run_suite",
    "smp_fingerprint",
    "FRONTIER_POLICIES", "build_frontier", "sweep_policies",
    "IntervalTrace", "PhaseComparison", "collect_interval_trace",
    "compare_phase_detection", "phase_match_score",
    "FIGURE5_POLICIES", "FIGURE6_POLICIES", "PAPER_FIGURE5",
    "PARALLEL_FIGURE_POLICIES",
    "build_figure2", "build_figure4", "build_figure5", "build_figure6",
    "build_figure7", "build_figure8", "build_figure9",
    "build_parallel_figure", "build_table1", "build_table2",
]
