#!/usr/bin/env python3
"""End-to-end sweep benchmark of the simulator.

One run measures one named workload: a grid of (benchmark, policy,
size, cores) cells that goes through ``make_spec`` and
``ExperimentEngine`` with ``jobs=1``, as ``python -m repro suite`` runs
it.  Every pass of the grid runs in a fresh interpreter (``child.py``)
against temporary result and checkpoint stores, so the cold-process
costs a user pays -- imports, block compilation, the generated-code
sanitizer -- are counted.

Load model: a closed loop with one client.  One child process simulates
at a time and runs its cells serially; the process-pool backend is left
out so the host scheduler stays out of the numbers.

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload dynamic-paper --seed 0 \\
        --seconds 20 --trace 0

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` cells, and the metrics -- the end-to-end
ones with ``--trace 0``, the per-layer ones with ``--trace 1``.  Tables
and run details go to standard error.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
#: per-run scratch space (temporary stores, child requests); removed at
#: the end of every run
WORK = HERE / ".work"

#: set-up probes per run; their median is ``setup_s``
SETUP_PROBES = 5
#: wall-clock limit of one child process
CHILD_TIMEOUT = 150.0

DYNAMIC = ("CPU-300-1M-inf", "EXC-300-1M-10", "IO-100-1M-inf")


def grid(benchmarks, policies, size: str, cores: int = 1) -> List[list]:
    return [[benchmark, policy, size, cores]
            for benchmark in benchmarks for policy in policies]


#: name -> the grid's cells and its passes.  A "cold" pass starts from
#: empty stores; a "warm" pass re-runs every cell (``force``) in a fresh
#: interpreter against the stores the cold pass filled.
WORKLOADS: Dict[str, dict] = {
    # the paper's headline Dynamic Sampling policies over thousands of
    # 1K-instruction intervals: fast mode and the sampler's own
    # per-interval work dominate, detailed timing is a small share
    "dynamic-paper": {
        "cells": grid(("mcf", "art"), DYNAMIC, "paper"),
        "passes": ("cold",),
    },
    # full timing and SMARTS: the timing model compiled into fused
    # blocks and megablocks does most of the work; the 2-hart cells
    # drive it through the SMP interleaver.  Almost no sampler work.
    "timing-paper": {
        "cells": (grid(("art",), ("full", "smarts"), "paper")
                  + grid(("mtstencil",), ("full", "smarts"), "paper",
                         cores=2)),
        "passes": ("cold",),
    },
    # a code footprint far above the 40-entry translation cache:
    # decode, codegen and the sanitizer dominate
    "codeheavy-small": {
        "cells": grid(("perlbmk",), ("CPU-300-1M-inf",), "small"),
        "passes": ("cold",),
    },
    # the only workload with BBV profiling, k-means and the checkpoint
    # store: the cold pass publishes rungs and artifacts, the warm pass
    # restores them
    "ckpt-small": {
        "cells": grid(("mcf", "art"), ("simpoint", "simpoint-ckpt"),
                      "small"),
        "passes": ("cold", "warm"),
    },
}

MODES = ("fast", "profile", "warming", "timed")


def cell_key(cell: list) -> str:
    benchmark, policy, size, cores = cell
    return f"{benchmark}:{policy}:{size}:c{cores}"


def full_key(cell: list) -> str:
    benchmark, _policy, size, cores = cell
    return f"{benchmark}:{size}:c{cores}"


def ordered(cells: List[list], seed: int) -> List[list]:
    """The grid in the order of ``seed`` (0 keeps the listed order).

    The order decides which cell pays the process-wide compile cost,
    never any result."""
    cells = [list(cell) for cell in cells]
    if seed:
        random.Random(seed).shuffle(cells)
    return cells


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            head = (git / head[5:]).read_text().strip()
    except OSError:
        return "unknown"
    return head[:12]


class Runner:
    """Spawns the child processes of one run inside its work directory.

    Children get a scrubbed environment: no ``REPRO_*`` switch (engine
    tiers, sanitizer, checkpoints, store location, job count) leaks in
    from the caller, and temporary files stay in the work directory."""

    def __init__(self, work: Path) -> None:
        self.work = work
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
                        TMPDIR=str(work))
        self.calls = 0

    def call(self, request: dict) -> dict:
        self.calls += 1
        path = self.work / f"request-{self.calls}.json"
        out = self.work / f"response-{self.calls}.json"
        path.write_text(json.dumps(dict(request, out=str(out))))
        spawned = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(path)], cwd=ROOT, env=self.env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=CHILD_TIMEOUT)
        if proc.returncode != 0:
            raise RuntimeError(f"benchmark child exited with "
                               f"{proc.returncode}:\n{proc.stderr}")
        response = json.loads(out.read_text())
        response["spawned"] = spawned
        return response

    def setup_seconds(self, cells: List[list]) -> float:
        """One probe: spawn -> import -> build every program -> boot."""
        response = self.call({"mode": "setup", "cells": cells})
        return response["ready"] - response["spawned"]

    def rep(self, workload: dict, cells: List[list], trace: bool) -> dict:
        """Every pass of the grid once, against fresh stores."""
        cache = tempfile.mkdtemp(dir=self.work)
        try:
            passes = []
            for kind in workload["passes"]:
                response = self.call({
                    "mode": "pass", "cells": cells, "cache": cache,
                    "force": kind == "warm", "trace": trace})
                response["kind"] = kind
                for cell, record in zip(cells, response["cells"]):
                    record["cell"] = cell_key(cell)
                passes.append(response)
        finally:
            shutil.rmtree(cache, ignore_errors=True)
        return {"sweep_s": sum(p["sweep_s"] for p in passes),
                "rss_kb": max(p["rss_kb"] for p in passes),
                "passes": passes}


def check(rep: dict, reference: dict) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons): a cell fails when the engine
    reports a failure or its digest differs from the reference."""
    attempted, failed, reasons = 0, 0, []
    for response in rep["passes"]:
        for cell in response["cells"]:
            attempted += 1
            expected = reference["cells"].get(cell["cell"])
            if not cell["ok"]:
                reason = cell["error"]
            elif cell["digest"] != expected:
                reason = ("no reference digest" if expected is None
                          else "digest differs from reference")
            else:
                continue
            failed += 1
            reasons.append(f"{cell['cell']} ({response['kind']}): {reason}")
    return attempted, failed, reasons


def ipc_error_pct(rep: dict, cells: List[list], reference: dict) -> float:
    """Mean |IPC - full IPC| / full IPC over the non-``full`` cells."""
    errors = []
    for cell, result in zip(cells, rep["passes"][0]["cells"]):
        if cell[1] == "full" or not result["ok"]:
            continue
        full = reference["full_ipc"][full_key(cell)]
        errors.append(abs(result["ipc"] - full) / full)
    return 100.0 * statistics.fmean(errors) if errors else 0.0


def merged_spans(rep: dict) -> Tuple[Dict[str, list], Dict[str, float]]:
    spans: Dict[str, list] = {}
    counters: Dict[str, float] = {}
    for response in rep["passes"]:
        for name, values in response["spans"].items():
            stat = spans.setdefault(name, [0, 0.0, 0.0])
            for index, value in enumerate(values):
                stat[index] += value
        for name, value in response["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


def layer_metrics(rep: dict, overhead_frac: float) -> Dict[str, tuple]:
    """The per-layer metrics of one traced rep, as ``name -> (value,
    unit)``.  Times named ``.s`` are inclusive, ``.self_s`` exclude the
    wrapped layers called inside."""
    spans, counters = merged_spans(rep)

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[2]

    def summed(field: str, key: str, kinds=("cold", "warm")) -> int:
        return sum(cell[field][key] for response in rep["passes"]
                   if response["kind"] in kinds
                   for cell in response["cells"] if cell["ok"])

    metrics: Dict[str, tuple] = {}
    for layer in ("workloads.build", "kernel.boot"):
        metrics[f"{layer}.calls"] = (calls(layer), "count")
        metrics[f"{layer}.s"] = (total(layer), "s")
    translations = calls("vm.translate")
    compiled = (calls("analysis.sanitize")
                - counters.get("analysis.sanitize.mega_calls", 0))
    metrics["vm.translate.calls"] = (translations, "count")
    metrics["vm.translate.self_s"] = (own("vm.translate"), "s")
    metrics["vm.translate.compiled"] = (compiled, "count")
    metrics["vm.translate.hit_ratio"] = (
        1.0 - compiled / translations if translations else 0.0, "ratio")
    metrics["vm.chain.emit.calls"] = (calls("vm.chain.emit"), "count")
    metrics["vm.chain.emit.s"] = (total("vm.chain.emit"), "s")
    for key in ("translations", "block_dispatches",
                "code_cache_invalidations"):
        metrics[f"vm.{key}"] = (summed("vm_stats", key), "count")
    metrics["analysis.sanitize.calls"] = (calls("analysis.sanitize"),
                                          "count")
    metrics["analysis.sanitize.s"] = (total("analysis.sanitize"), "s")
    metrics["analysis.sanitize.mega_calls"] = (
        counters.get("analysis.sanitize.mega_calls", 0), "count")
    for mode in MODES:
        span = f"sampling.controller.{mode}"
        instructions = counters.get(f"{span}.instructions", 0)
        metrics[f"{span}.calls"] = (calls(span), "count")
        metrics[f"{span}.self_s"] = (own(span), "s")
        metrics[f"{span}.instructions"] = (instructions, "count")
        metrics[f"{span}.ips"] = (
            instructions / total(span) if total(span) else 0.0, "1/s")
    metrics["sampling.controller.fast_forward.self_s"] = (
        own("sampling.controller.fast_forward"), "s")
    for key in ("restores", "skipped_instructions", "profile_cache_hits"):
        metrics[f"exec.ckpt.{key}"] = (summed("checkpoints", key), "count")
    metrics["exec.ckpt.warm_restores"] = (
        summed("checkpoints", "restores", kinds=("warm",)), "count")
    metrics["sampling.policy.self_s"] = (own("sampling.policy"), "s")
    metrics["sampling.simpoint.cluster.calls"] = (
        calls("sampling.simpoint.cluster"), "count")
    metrics["sampling.simpoint.cluster.s"] = (
        total("sampling.simpoint.cluster"), "s")
    for op in ("load", "publish", "artifact_load", "artifact_publish"):
        span = f"exec.ckptstore.{op}"
        metrics[f"{span}.calls"] = (calls(span), "count")
        if op.endswith("load"):
            metrics[f"{span}.hits"] = (counters.get(f"{span}.hits", 0),
                                       "count")
        metrics[f"{span}.s"] = (total(span), "s")
    for op in ("get", "put"):
        metrics[f"exec.store.{op}.calls"] = (calls(f"exec.store.{op}"),
                                             "count")
        metrics[f"exec.store.{op}.s"] = (total(f"exec.store.{op}"), "s")
    metrics["exec.engine.self_s"] = (own("exec.engine"), "s")
    walls = [cell["wall_s"] for response in rep["passes"]
             for cell in response["cells"]]
    metrics["exec.job.p50_s"] = (statistics.median(walls), "s")
    metrics["exec.job.max_s"] = (max(walls), "s")
    metrics["exec.job.count"] = (len(walls), "count")
    metrics["trace.sweep_s"] = (rep["sweep_s"], "s")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics


def print_model_table(rep: dict, metrics: Dict[str, tuple]) -> None:
    """Measured throughput and speedups next to the cost model's
    (informational; not gated)."""
    model = rep["passes"][0]["cost_model_ips"]
    log("mode      instructions   measured ips   modelled ips")
    for mode in MODES:
        span = f"sampling.controller.{mode}"
        log(f"{mode:8s} {metrics[f'{span}.instructions'][0]:13d} "
            f"{metrics[f'{span}.ips'][0]:14.4g} {model[mode]:14.4g}")
    results = {cell["cell"]: cell for cell in rep["passes"][0]["cells"]}
    totals: Dict[str, list] = {}
    for key, result in results.items():
        benchmark, policy, size, cores = key.split(":")
        full = results.get(f"{benchmark}:full:{size}:{cores}")
        if policy == "full" or full is None or not (full["ok"]
                                                    and result["ok"]):
            continue
        total = totals.setdefault(policy, [0.0, 0.0, 0.0, 0.0])
        for index, value in enumerate((full["wall_s"], result["wall_s"],
                                       full["modeled_s"],
                                       result["modeled_s"])):
            total[index] += value
    for policy, (full_wall, wall, full_model, modelled) in totals.items():
        log(f"speedup over full, {policy}: measured "
            f"{full_wall / wall:.2f}x, modelled {full_model / modelled:.2f}x")


def log(text: str) -> None:
    print(text, file=sys.stderr)


def sweep_seconds(reps: List[dict]) -> float:
    """The grid's wall time with the host's interference filtered out.

    Each rep times every pass from ``engine.run`` start to the last
    result persisted.  The host is shared, and its speed swings by tens
    of percent within seconds, so the reps are combined per part rather
    than as wholes: every cell of every pass contributes its fastest
    wall time over the reps, and the engine's own remainder (the rep
    minus its cells) its smallest.  Each part is still measured in
    full, so a change to any of them moves the sum."""
    fastest: Dict[tuple, float] = {}
    remainders = []
    for rep in reps:
        cells_s = 0.0
        for response in rep["passes"]:
            for cell in response["cells"]:
                key = (response["kind"], cell["cell"])
                fastest[key] = min(fastest.get(key, cell["wall_s"]),
                                   cell["wall_s"])
                cells_s += cell["wall_s"]
        remainders.append(rep["sweep_s"] - cells_s)
    return sum(fastest.values()) + min(remainders)


def measure(workload: dict, reference: dict, seed: int, seconds: float,
            trace: bool) -> dict:
    """One benchmark run: set-up probes, then reps of the grid until
    ``seconds`` are spent (at least one)."""
    cells = ordered(workload["cells"], seed)
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        runner = Runner(Path(work))
        runner.setup_seconds(cells)  # warms the page and bytecode caches
        setup = [runner.setup_seconds(cells) for _ in range(SETUP_PROBES)]
        reps: List[dict] = []
        traced: List[dict] = []
        start = time.monotonic()
        while True:
            reps.append(runner.rep(workload, cells, trace=False))
            if trace:
                traced.append(runner.rep(workload, cells, trace=True))
            elapsed = time.monotonic() - start
            if elapsed + elapsed / len(reps) > seconds:
                break
    attempted = failed = 0
    for rep in reps + traced:
        rep_attempted, rep_failed, reasons = check(rep, reference)
        attempted += rep_attempted
        failed += rep_failed
        for reason in reasons:
            log(f"FAILED {reason}")
    sweep = sweep_seconds(reps)
    per_rep = " ".join(f"{rep['sweep_s']:.3f}" for rep in reps)
    log(f"sweep_s {sweep:.3f}, per rep: {per_rep}; setup_s per probe: "
        f"{' '.join(f'{s:.3f}' for s in setup)}")
    if trace:
        traced.sort(key=lambda rep: rep["sweep_s"])
        median_rep = traced[(len(traced) - 1) // 2]
        overhead = sweep_seconds(traced) / sweep - 1.0
        metrics = layer_metrics(median_rep, overhead)
        print_model_table(median_rep, metrics)
    else:
        metrics = {
            "sweep_s": (sweep, "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (max(rep["rss_kb"] for rep in reps) / 1024,
                            "MiB"),
            "ipc_error_pct": (ipc_error_pct(reps[0], cells, reference),
                              "%"),
        }
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def build_reference(workloads) -> dict:
    """Cell digests and full-timing IPCs of ``workloads``, simulated
    once; every pass of a cell must agree on its digest."""
    cells: Dict[str, str] = {}
    full_cells: Dict[str, list] = {}
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as work:
        runner = Runner(Path(work))
        for workload in workloads:
            rep = runner.rep(workload, workload["cells"], trace=False)
            for response in rep["passes"]:
                for cell in response["cells"]:
                    if not cell["ok"]:
                        raise RuntimeError(f"{cell['cell']}: "
                                           f"{cell['error']}")
                    if cells.setdefault(cell["cell"],
                                        cell["digest"]) != cell["digest"]:
                        raise RuntimeError(f"{cell['cell']}: digest "
                                           "differs between passes")
            for benchmark, _policy, size, cores in workload["cells"]:
                full = [benchmark, "full", size, cores]
                full_cells[full_key(full)] = full
        rep = runner.rep({"passes": ("cold",)}, list(full_cells.values()),
                         trace=False)
    full_ipc = {}
    for cell, result in zip(full_cells.values(), rep["passes"][0]["cells"]):
        if not result["ok"]:
            raise RuntimeError(f"{result['cell']}: {result['error']}")
        full_ipc[full_key(cell)] = result["ipc"]
    return {"cells": cells, "full_ipc": full_ipc}


def summarize(runs: List[dict]) -> Dict[str, tuple]:
    """Median of each metric over ``runs``; logs quartiles and spread."""
    log(f"{'metric':44s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
        f"{'spread':>8s}")
    medians = {}
    for name, (_value, unit) in runs[0]["metrics"].items():
        values = [run["metrics"][name][0] for run in runs]
        median = statistics.median(values)
        q1, _q2, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        log(f"{name:44s} {median:12.6g} {q1:12.6g} {q3:12.6g} "
            f"{spread:8.2%}")
        medians[name] = (median, unit)
    return medians


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end sweep benchmark (see README.md).")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="permutes the order of the grid's cells")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of one run (at least one "
                             "rep of the grid runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs with seeds seed..seed+N-1; prints "
                             "each metric's median, quartiles, spread")
    parser.add_argument("--refresh-reference", action="store_true",
                        help="re-simulate every grid and rewrite "
                             "reference.json")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        log(f"e2e: no simulator sources under {ROOT / 'src'}")
        return 2
    if args.refresh_reference:
        reference = build_reference(WORKLOADS.values())
        REFERENCE.write_text(json.dumps(reference, indent=1,
                                        sort_keys=True) + "\n")
        log(f"wrote {REFERENCE}")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    reference = json.loads(REFERENCE.read_text())
    log(f"e2e {args.workload}: seed {args.seed}, python "
        f"{platform.python_version()}, nproc {os.cpu_count()}, "
        f"commit {git_commit()}")
    runs = [measure(WORKLOADS[args.workload], reference, args.seed + index,
                    args.seconds, bool(args.trace))
            for index in range(max(1, args.repeat))]
    metrics = summarize(runs) if len(runs) > 1 else runs[0]["metrics"]
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
