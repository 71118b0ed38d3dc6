"""Synthetic SPEC CPU2000-like workloads and the construction DSL."""

from .dsl import PhaseInfo, Workload, WorkloadBuilder, smp_cores
from .kernels import KERNELS
from .parallel import (DEFAULT_PARALLEL_CORES, PARALLEL_BENCHMARKS,
                       PARALLEL_DESCRIPTIONS, build_parallel)
from .spec2000 import (BenchmarkSpec, EXAMPLE_BENCHMARK, FP_BENCHMARKS,
                       INTEGER_BENCHMARKS, SCALE, SPEC2000, SUITE_ORDER,
                       build_benchmark, plan_phase)
from .suite import (SUITE_MACHINE_KWARGS, benchmark_names,
                    default_benchmark_cores, get_spec,
                    is_parallel_benchmark, load_benchmark, load_suite,
                    parallel_benchmark_names, scale_sizes)

__all__ = [
    "PhaseInfo", "Workload", "WorkloadBuilder", "smp_cores",
    "KERNELS",
    "DEFAULT_PARALLEL_CORES", "PARALLEL_BENCHMARKS",
    "PARALLEL_DESCRIPTIONS", "build_parallel",
    "BenchmarkSpec", "EXAMPLE_BENCHMARK", "FP_BENCHMARKS",
    "INTEGER_BENCHMARKS", "SCALE", "SPEC2000", "SUITE_ORDER",
    "build_benchmark", "plan_phase",
    "SUITE_MACHINE_KWARGS", "benchmark_names", "default_benchmark_cores",
    "get_spec", "is_parallel_benchmark", "load_benchmark", "load_suite",
    "parallel_benchmark_names", "scale_sizes",
]
