"""Builders for every table and figure in the paper's evaluation.

Each ``build_*`` function runs (or fetches from the result cache) the
simulations behind one table/figure and returns ``(text, data)`` —
a rendered plain-text artefact plus the underlying numbers.  The
``benchmarks/`` targets call these and write the text next to their
outputs; EXPERIMENTS.md records the paper-vs-measured comparison.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis import (ascii_scatter, ascii_series, format_table,
                            pareto_frontier)
from repro.sampling import accuracy_error
from repro.timing import TimingConfig
from repro.workloads import SPEC2000, SUITE_ORDER, load_benchmark

from .experiments import (default_benchmarks, fetch_results,
                          modeled_seconds_for)
from .traces import (collect_interval_trace, compare_phase_detection,
                     phase_match_score)

#: the paper's Figure 5 headline points: label -> (error %, speedup x)
PAPER_FIGURE5 = {
    "smarts": (0.5, 7.4),
    "simpoint": (1.7, 422.0),
    "simpoint+prof": (1.7, 9.5),
    "IO-100-1M-inf": (1.9, 309.0),
    "CPU-300-1M-inf": (1.1, 158.0),
    "CPU-300-1M-100": (0.3, 43.0),
    "CPU-300-100M-10": (0.4, 8.5),
    "EXC-500-10M-10": (6.7, 9.1),
    "EXC-300-1M-10": (3.9, 4.3),
}

#: policy set used for Figures 5/8/9 (paper's named configurations)
FIGURE5_POLICIES = ("smarts", "simpoint", "simpoint+prof",
                    "IO-100-1M-inf", "CPU-300-1M-inf", "CPU-300-1M-100",
                    "CPU-300-100M-10", "EXC-500-10M-10", "EXC-300-1M-10")

#: Figure 6/7 bar groups
FIGURE6_POLICIES = ("full", "smarts", "simpoint",
                    "CPU-300-1M-10", "CPU-300-1M-inf",
                    "CPU-300-10M-10", "CPU-300-10M-inf",
                    "CPU-300-100M-10", "CPU-300-100M-inf",
                    "IO-100-1M-10", "IO-100-1M-inf",
                    "IO-100-10M-10", "IO-100-10M-inf",
                    "IO-100-100M-10", "IO-100-100M-inf")


# ----------------------------------------------------------------------
# tables

def build_table1() -> Tuple[str, dict]:
    """Table 1: timing simulator parameters (paper + scaled variants)."""
    paper = TimingConfig.opteron_like()
    scaled = TimingConfig.small()
    rows = []

    def add(name, paper_value, scaled_value):
        rows.append((name, paper_value, scaled_value))

    add("Fetch/Issue/Retire width", paper.fetch_width, scaled.fetch_width)
    add("Branch mispred. penalty",
        paper.branch_mispredict_penalty, scaled.branch_mispredict_penalty)
    add("Fetch queue size", paper.fetch_queue_size,
        scaled.fetch_queue_size)
    add("Instruction window", paper.window_size, scaled.window_size)
    add("Load/Store buffers",
        f"{paper.load_buffer_size}/{paper.store_buffer_size}",
        f"{scaled.load_buffer_size}/{scaled.store_buffer_size}")
    add("Functional units (int/mem/fp)",
        f"{paper.int_units}/{paper.mem_units}/{paper.fp_units}",
        f"{scaled.int_units}/{scaled.mem_units}/{scaled.fp_units}")
    add("gshare entries", paper.gshare_entries, scaled.gshare_entries)
    add("BTB entries", paper.btb_entries, scaled.btb_entries)
    add("RAS entries", paper.ras_entries, scaled.ras_entries)
    add("L1I", _cache_str(paper.l1i), _cache_str(scaled.l1i))
    add("L1D", _cache_str(paper.l1d), _cache_str(scaled.l1d))
    add("L2", _cache_str(paper.l2), _cache_str(scaled.l2))
    add("L2 hit latency", paper.l2.hit_latency, scaled.l2.hit_latency)
    add("ITLB/DTLB entries",
        f"{paper.l1_itlb.entries}/{paper.l1_dtlb.entries}",
        f"{scaled.l1_itlb.entries}/{scaled.l1_dtlb.entries}")
    add("L2 TLB", f"{paper.l2_tlb.entries}, {paper.l2_tlb.assoc}-way",
        f"{scaled.l2_tlb.entries}, {scaled.l2_tlb.assoc}-way")
    add("Memory latency", paper.memory_latency, scaled.memory_latency)
    text = format_table(("parameter", "paper (Table 1)", "scaled"),
                        rows, title="Table 1: timing model parameters")
    return text, {"rows": rows}


def _cache_str(config) -> str:
    return (f"{config.size // 1024}KB, {config.assoc}-way, "
            f"{config.line_size}B")


def build_table2(size: str = "small",
                 benchmarks: Optional[Sequence[str]] = None
                 ) -> Tuple[str, dict]:
    """Table 2: benchmark characteristics (measured at this scale)."""
    names = list(benchmarks or SUITE_ORDER)
    results = fetch_results(["full", "simpoint"], names, size=size)
    rows = []
    data = {}
    for name in names:
        spec = SPEC2000[name]
        workload = load_benchmark(name, size=size)
        full = results[(name, "full")]
        simpoint = results[(name, "simpoint")]
        measured = full.total_instructions
        points = simpoint.extra.get("num_simpoints", 0)
        rows.append((name, spec.ref_input,
                     spec.paper_billions, measured,
                     spec.paper_simpoints, points,
                     len(workload.phases)))
        data[name] = {"instructions": measured, "simpoints": points}
    text = format_table(
        ("benchmark", "ref input", "paper 10^9 instr",
         "measured instr", "paper simpoints (K=300)",
         "simpoints (scaled)", "phases"),
        rows, title=f"Table 2: benchmark characteristics (size={size})")
    return text, data


# ----------------------------------------------------------------------
# figure 2 / figure 4

def build_figure2(benchmark: str = "perlbmk", size: str = "small",
                  variable: str = "EXC",
                  max_intervals: int = 400) -> Tuple[str, dict]:
    """Figure 2: correlation between a VM statistic and the IPC."""
    trace = collect_interval_trace(benchmark, size=size,
                                   max_intervals=max_intervals)
    ipc = np.array(trace.ipc)
    stat = np.array(trace.stats[variable], dtype=float)
    # correlate *changes*: a phase change moves both series
    ipc_change = np.abs(np.diff(ipc))
    stat_change = np.abs(np.diff(stat))
    if ipc_change.std() > 0 and stat_change.std() > 0:
        correlation = float(np.corrcoef(ipc_change, stat_change)[0, 1])
    else:
        correlation = 0.0
    # how often a large IPC move coincides with statistic activity
    moves = ipc_change > (ipc_change.mean() + ipc_change.std())
    active = stat_change > 0
    coincidence = (float((moves & active).sum()) / moves.sum()
                   if moves.sum() else 0.0)
    plot = ascii_series(
        [("IPC", list(ipc)),
         (f"{variable} delta (scaled)",
          list(stat / (stat.max() or 1) * ipc.max()))],
        title=(f"Figure 2: {benchmark} — IPC vs {variable} per "
               f"{trace.interval_length}-instruction interval"))
    summary = (f"\ncorrelation(|dIPC|, |d{variable}|) = {correlation:.3f}"
               f"\nlarge IPC moves with {variable} activity: "
               f"{coincidence * 100:.0f}%\n")
    return plot + summary, {"correlation": correlation,
                            "coincidence": coincidence,
                            "intervals": trace.intervals}


def build_figure4(benchmark: str = "perlbmk", size: str = "small",
                  variable: str = "EXC") -> Tuple[str, dict]:
    """Figure 4: SimPoint points vs dynamically detected phases."""
    comparison = compare_phase_detection(benchmark, size=size,
                                         variable=variable)
    score = phase_match_score(comparison)
    rows = [("SimPoint simulation points",
             len(comparison.simpoint_intervals),
             _squash(comparison.simpoint_intervals)),
            (f"Dynamic Sampling phases ({variable}-300-1M)",
             len(comparison.dynamic_intervals),
             _squash(comparison.dynamic_intervals))]
    text = format_table(("series", "count", "interval indices"), rows,
                        title=f"Figure 4: phase detection on {benchmark} "
                              f"({comparison.num_intervals} intervals)")
    text += ("\nP_N ~= SP_N match score (+-10 intervals): "
             f"{score * 100:.0f}%\n")
    return text, {"match_score": score,
                  "simpoints": comparison.simpoint_intervals,
                  "dynamic": comparison.dynamic_intervals}


def _squash(values: List[int], limit: int = 24) -> str:
    text = ", ".join(str(value) for value in values[:limit])
    if len(values) > limit:
        text += f", ... (+{len(values) - limit})"
    return text


# ----------------------------------------------------------------------
# figures 5-9

def build_figure5(size: str = "small",
                  benchmarks: Optional[Sequence[str]] = None
                  ) -> Tuple[str, dict]:
    """Figure 5: accuracy error vs speedup, with the Pareto frontier."""
    benchmarks = list(benchmarks or default_benchmarks())
    numbers = sweep_policies(FIGURE5_POLICIES, benchmarks, size)
    points = [(policy,
               numbers[policy]["error"] * 100,
               numbers[policy]["speedup"])
              for policy in FIGURE5_POLICIES]
    frontier = pareto_frontier(points)
    rows = []
    for policy, error, speed in points:
        paper_error, paper_speed = PAPER_FIGURE5.get(policy, ("-", "-"))
        on_frontier = "*" if any(f[0] == policy for f in frontier) else ""
        rows.append((policy, f"{error:.2f}", f"{speed:.1f}",
                     paper_error, paper_speed, on_frontier))
    table = format_table(
        ("policy", "error % (ours)", "speedup x (ours)",
         "error % (paper)", "speedup x (paper)", "pareto"),
        rows, title="Figure 5: accuracy vs speed "
                    f"({len(benchmarks)} benchmarks, size={size})")
    plot = ascii_scatter(points)
    return table + "\n\n" + plot + "\n", {
        "points": points,
        "frontier": [f[0] for f in frontier],
        "benchmarks": benchmarks,
    }


def build_figure6(size: str = "small",
                  benchmarks: Optional[Sequence[str]] = None
                  ) -> Tuple[str, dict]:
    """Figure 6: mean IPC per policy with accuracy-error labels."""
    benchmarks = list(benchmarks or default_benchmarks())
    numbers = sweep_policies(FIGURE6_POLICIES, benchmarks, size)
    rows = []
    for policy in FIGURE6_POLICIES:
        cells = numbers[policy]["per_benchmark"].values()
        rows.append((policy, sum(cell["ipc"] for cell in cells) / len(cells),
                     f"{numbers[policy]['error'] * 100:.1f}"))
    table = format_table(("policy", "mean IPC", "error %"), rows,
                         title="Figure 6: IPC per timing policy "
                               f"(size={size})")
    return table + "\n", {policy: numbers[policy]["error"]
                          for policy in FIGURE6_POLICIES}


def build_figure7(size: str = "small",
                  benchmarks: Optional[Sequence[str]] = None
                  ) -> Tuple[str, dict]:
    """Figure 7: modeled simulation time per policy with speedups."""
    benchmarks = list(benchmarks or default_benchmarks())
    policies = ("full", "smarts", "simpoint", "simpoint+prof") + \
        FIGURE6_POLICIES[3:]
    numbers = sweep_policies(policies, benchmarks, size)
    rows = [(policy, f"{numbers[policy]['seconds']:.2f}",
             f"{numbers[policy]['speedup']:.1f}")
            for policy in policies]
    table = format_table(
        ("policy", "modeled host seconds", "speedup x"), rows,
        title=f"Figure 7: simulation time per policy (size={size}; "
              "modeled with the paper's per-mode MIPS)")
    return table + "\n", {policy: numbers[policy]["speedup"]
                          for policy in policies}


def build_figure8(size: str = "small",
                  benchmarks: Optional[Sequence[str]] = None
                  ) -> Tuple[str, dict]:
    """Figure 8: per-benchmark IPC for the four headline policies."""
    benchmarks = list(benchmarks or default_benchmarks())
    policies = ("full", "smarts", "simpoint", "CPU-300-1M-inf")
    numbers = sweep_policies(policies, benchmarks, size)
    rows = []
    for name in benchmarks:
        row = [name]
        for policy in policies:
            row.append(numbers[policy]["per_benchmark"][name]["ipc"])
        rows.append(tuple(row))
    table = format_table(("benchmark",) + policies, rows,
                         title="Figure 8: IPC per benchmark "
                               f"(size={size})")
    return table + "\n", {
        policy: {name: numbers[policy]["per_benchmark"][name]["ipc"]
                 for name in benchmarks} for policy in policies}


def build_figure9(size: str = "small",
                  benchmarks: Optional[Sequence[str]] = None
                  ) -> Tuple[str, dict]:
    """Figure 9: per-benchmark modeled simulation time (log axis)."""
    benchmarks = list(benchmarks or default_benchmarks())
    policies = ("full", "smarts", "simpoint", "simpoint+prof",
                "CPU-300-1M-inf")
    numbers = sweep_policies(policies, benchmarks, size)
    rows = []
    for name in benchmarks:
        row = [name]
        for policy in policies:
            seconds = numbers[policy]["per_benchmark"][name]["seconds"]
            row.append(f"{seconds:.3f}")
        rows.append(tuple(row))
    table = format_table(("benchmark",) + policies, rows,
                         title="Figure 9: modeled simulation seconds "
                               f"per benchmark (size={size})")
    return table + "\n", {
        policy: {name: numbers[policy]["per_benchmark"][name]["seconds"]
                 for name in benchmarks} for policy in policies}


# ----------------------------------------------------------------------
# accuracy-vs-cost frontier over the whole policy zoo (not in the paper)

#: the sequential tiny-suite members the frontier sweeps (fast but
#: diverse: integer compression, pointer chasing, dense FP, neural
#: simulation)
FRONTIER_BENCHMARKS = ("gzip", "mcf", "swim", "art")

#: paper baselines + named Dynamic Sampling points + the statistical
#: zoo at several budget settings
FRONTIER_POLICIES = (
    "smarts",
    "simpoint",
    "simpoint+prof",
    "simpoint-mav",
    "CPU-300-1M-inf",
    "EXC-300-1M-10",
    "stratified-6",
    "stratified-12",
    "stratified-24",
    "rankedset-3",
    "rankedset-6",
)


def sweep_policies(policies: Optional[Sequence[str]] = None,
                   benchmarks: Optional[Sequence[str]] = None,
                   size: str = "tiny") -> Dict[str, Dict]:
    """Per-policy frontier numbers: mean error, suite speedup, cost.

    One grid fetch through the experiment engine (parallel with
    ``REPRO_JOBS``); the full-timing reference is fetched alongside.
    Every number is modeled — error against full timing, cost from the
    paper's per-mode MIPS over exact instruction counts — so the sweep
    is bit-deterministic for a given tree.
    """
    policies = list(policies or FRONTIER_POLICIES)
    benchmarks = list(benchmarks or FRONTIER_BENCHMARKS)
    wanted = list(dict.fromkeys(policies + ["full"]))
    grid = fetch_results(wanted, benchmarks, size=size)
    full = {name: grid[(name, "full")] for name in benchmarks}
    full_seconds = sum(result.modeled_seconds for result in full.values())
    numbers: Dict[str, Dict] = {}
    for policy in policies:
        results = {name: grid[(name, policy)] for name in benchmarks}
        errors = {name: accuracy_error(results[name].ipc, full[name].ipc)
                  for name in benchmarks}
        seconds = sum(modeled_seconds_for(policy, results[name])
                      for name in benchmarks)
        entry = {
            "error": sum(errors.values()) / len(errors),
            "speedup": (full_seconds / seconds if seconds > 0
                        else math.inf),
            "seconds": seconds,
            "timed_intervals": sum(result.timed_intervals
                                   for result in results.values()),
            "per_benchmark": {name: {
                "ipc": results[name].ipc,
                "error": errors[name],
                "seconds": modeled_seconds_for(policy, results[name]),
            } for name in benchmarks},
        }
        ci_bounds = [results[name].extra.get("ipc_ci_relative")
                     for name in benchmarks]
        ci_bounds = [bound for bound in ci_bounds
                     if isinstance(bound, (int, float))]
        if ci_bounds:
            # ranked-set policies report a per-benchmark confidence
            # interval; surface the worst relative half-width
            entry["ci_relative_max"] = max(ci_bounds)
        numbers[policy] = entry
    return numbers


def frontier_payload(benchmarks: Sequence[str] = FRONTIER_BENCHMARKS,
                     size: str = "tiny",
                     policies: Sequence[str] = FRONTIER_POLICIES) -> Dict:
    """The swept policies, their Pareto-efficient set and a summary."""
    policies, benchmarks = list(policies), list(benchmarks)
    numbers = sweep_policies(policies, benchmarks, size=size)
    points = [(policy, numbers[policy]["error"] * 100,
               numbers[policy]["speedup"]) for policy in policies]
    frontier = [label for label, _, _ in pareto_frontier(points)]
    finite_errors = [numbers[p]["error"] for p in policies
                     if math.isfinite(numbers[p]["error"])]
    return {
        "size": size,
        "benchmarks": benchmarks,
        "policies": {policy: numbers[policy] for policy in policies},
        "frontier": frontier,
        "summary": {
            "num_policies": len(policies),
            "num_frontier": len(frontier),
            "best_error": min(finite_errors) if finite_errors else math.inf,
            "best_speedup": max(numbers[p]["speedup"] for p in policies),
        },
    }


def build_frontier(size: str = "tiny",
                   benchmarks: Optional[Sequence[str]] = None
                   ) -> Tuple[str, dict]:
    """The frontier as a table plus an error-vs-speedup scatter."""
    from .bench import format_table as bench_table
    payload = frontier_payload(benchmarks or FRONTIER_BENCHMARKS, size)
    points = [(policy, cell["error"] * 100, cell["speedup"])
              for policy, cell in payload["policies"].items()]
    return (bench_table("frontier", payload) + "\n\n"
            + ascii_scatter(points) + "\n", payload)


# ----------------------------------------------------------------------
# parallel suite (multi-core guests; not in the paper)

#: policies compared on the multi-threaded workloads
PARALLEL_FIGURE_POLICIES = ("smarts", "CPU-300-1M-inf", "EXC-300-1M-10")


def build_parallel_figure(size: str = "small",
                          cores: Optional[int] = None
                          ) -> Tuple[str, dict]:
    """Parallel suite: sampling accuracy on multi-core guests.

    Per-core Dynamic Sampling (gang-scheduled Algorithm 1) vs full
    timing on the multi-threaded workloads, plus the per-hart
    block-dispatch balance of each guest.  ``cores=None`` uses each
    benchmark's default hart count.
    """
    from repro.workloads import (default_benchmark_cores,
                                 parallel_benchmark_names)
    names = parallel_benchmark_names()
    wanted = list(dict.fromkeys(("full",) + PARALLEL_FIGURE_POLICIES))
    grid = fetch_results(wanted, names, size=size, cores=cores)
    rows = []
    data = {}
    balance_lines = []
    for name in names:
        full = grid[(name, "full")]
        per_core = (full.extra or {}).get("cores") or {}
        n_cores = per_core.get("n",
                               cores or default_benchmark_cores(name))
        dispatches = [stats.get("block_dispatches", 0)
                      for stats in per_core.get("vm_stats", [])]
        balance_lines.append(
            f"per-core[{name}]: cores={n_cores} "
            f"block_dispatches={dispatches}")
        data[name] = {"cores": n_cores, "full_ipc": full.ipc,
                      "block_dispatches": dispatches, "policies": {}}
        for policy in PARALLEL_FIGURE_POLICIES:
            result = grid[(name, policy)]
            error = accuracy_error(result.ipc, full.ipc)
            speed = (full.modeled_seconds / result.modeled_seconds
                     if result.modeled_seconds else math.inf)
            rows.append((name, n_cores, policy, f"{result.ipc:.4f}",
                         f"{full.ipc:.4f}", f"{error * 100:.2f}",
                         f"{speed:.1f}"))
            data[name]["policies"][policy] = {
                "ipc": result.ipc, "error": error, "speedup": speed}
    table = format_table(
        ("benchmark", "cores", "policy", "ipc", "full ipc",
         "error %", "speedup x"),
        rows, title="Parallel suite: per-core dynamic sampling on "
                    f"multi-core guests (size={size})")
    return table + "\n" + "\n".join(balance_lines) + "\n", data
