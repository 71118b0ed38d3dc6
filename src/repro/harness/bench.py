"""One bench harness: every CI perf and accuracy gate as a row of data.

Each suite behind ``python -m repro bench --suite NAME`` is one
:class:`Suite` entry in ``SUITES``:

* ``hotpath`` — the fused fast path vs the per-instruction interpreter
  oracle (the engine ``REPRO_SLOW_PATH=1`` selects), guest
  instructions/second in timed and warming event mode;
* ``megablock`` — the chained megablock tier vs the fused tier (the
  ``REPRO_MEGABLOCKS=0`` engine) on the loop-dominated suite;
* ``checkpoint`` — SimPoint wall clock against a cold, then a warm,
  on-disk checkpoint store, every job in a fresh interpreter so only
  the store carries over;
* ``frontier`` — the modeled accuracy-vs-cost sweep over the policy
  zoo (:func:`repro.harness.figures.frontier_payload`).

The wall-clock suites report *ratios* of identical deterministic work
measured on one host (fast/slow, mega/fused, cold/warm), so their
gates hold across runner generations; the frontier is modeled, hence
exact.  Probes are best-of-N: host noise only ever slows a probe, so
the fastest repeat is the least contaminated.

A gate is declared in exactly one place, its suite's ``gates``: a glob
over the payload's dotted leaf paths plus a kind (see :class:`Gate`).
``history`` names the ratio metrics the perf trajectory
(:mod:`repro.harness.history`) records, with the direction that
counts as better.  Payloads are committed as
``benchmarks/BENCH_<suite>.json``.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple

from repro.analysis import format_table as render_table
from repro.exec import ExperimentEngine, ResultStore
from repro.exec.store import STORE_DIR_NAME
from repro.sampling.controller import SimulationController
from repro.timing import TimingConfig
from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

from .experiments import default_benchmarks, make_spec
from .figures import FRONTIER_BENCHMARKS, FRONTIER_POLICIES, frontier_payload
from .history import DEFAULT_TOLERANCE

SCHEMA_VERSION = 1

#: event-mode flavours of the engine suites
MODES = ("timed", "warming")

#: (warm, measure) instruction windows per suite size, sized so warm +
#: measure stays below the shortest benchmark's halt point (tiny: art
#: halts at ~22.9K instructions; small: at ~564K).  The warm window
#: covers tier promotion and chain building, so the measure window sees
#: steady-state dispatch on every engine.
WINDOWS: Dict[str, Tuple[int, int]] = {
    "tiny": (6_000, 14_000),
    "small": (150_000, 350_000),
}

#: loop-dominated benchmarks where the megablock tier engages: it is
#: trace linking, so it pays where hot loops close into chains.  Phase-
#: churning or straight-line workloads (gzip, gcc) exercise the tier's
#: guards and unlinking, which the parity tests cover instead.
MEGABLOCK_BENCHES = ("mcf", "applu", "mgrid", "lucas", "facerec", "art")

#: quick-suite members whose profile + fast-forward preparation
#: dominates at the paper size — the regime where SimPoint restores
#: checkpoints instead of replaying; gzip and perlbmk are left out
#: because their detailed pass, which no checkpoint skips, dominates
CHECKPOINT_BENCHES = ("mcf", "crafty", "swim", "art", "sixtrack", "gcc")


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of the positive values (0.0 when there are none)."""
    values = [value for value in values if value > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(value) for value in values)
                    / len(values))


# ----------------------------------------------------------------------
# the suite table


@dataclass(frozen=True)
class Gate:
    """One check over the payload leaves that ``path`` matches.

    ``path`` globs dotted leaf paths one segment at a time
    (``sizes.*.benchmarks.*.*.speedup``).  Kinds:

    * ``ratio`` — every matching baseline leaf must be in the run and at
      least ``baseline * (1 - tolerance)``;
    * ``drift`` — every matching baseline leaf must be in the run and
      within ``bound`` of the baseline in either direction;
    * ``floor`` / ``ceiling`` — every matching leaf of the run must be
      at least / at most ``bound``, whatever the baseline says; a
      ``noisy`` floor also gives up the run tolerance.
    """

    path: str
    kind: str
    bound: float = 0.0
    noisy: bool = False


#: a runner: (suite, sizes, benchmarks, repeats) -> payload
Runner = Callable[["Suite", List[str], List[str], int], Dict]


@dataclass(frozen=True)
class Suite:
    """One bench suite: what it measures and the gates that hold it.

    Engine suites set ``engines`` and ``switch``: the second engine is
    the first with machine attribute ``switch`` turned off.  Policy
    suites set ``policies``; for the store suite the last policy is the
    accelerated one its headline geomean covers.  ``rows`` globs the
    payload cells the table prints, ``columns`` the (header, cell key,
    format) of each.
    """

    name: str
    baseline: str
    size: str
    benchmarks: Tuple[str, ...]
    runner: Runner
    gates: Tuple[Gate, ...]
    history: Tuple[Tuple[str, str], ...]
    rows: str
    columns: Tuple[Tuple[str, str, str], ...]
    engines: Tuple[str, ...] = ()
    switch: str = ""
    policies: Tuple[str, ...] = ()
    fresh_process: bool = False
    repeats: int = 1


# ----------------------------------------------------------------------
# probes


def _fastest(probes: Iterable[Dict]) -> Dict:
    return min(probes, key=lambda probe: probe["seconds"])


def _call(suite: Suite, probe: Callable[..., Dict], *args: Any) -> Dict:
    """``probe(*args)``, in a fresh interpreter when the suite asks.

    A fresh interpreter shares nothing with this one — in particular not
    the process-wide compiled-code cache (:mod:`repro.vm.translator`) —
    so the only state one probe hands the next is what it left on disk.
    """
    if not suite.fresh_process:
        return probe(*args)
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    # fresh-process probes measure the checkpoint store: force it on,
    # whatever the caller's environment says
    env["REPRO_CHECKPOINTS"] = "1"
    proc = subprocess.run(
        [sys.executable, "-m", __name__, probe.__name__, json.dumps(args)],
        env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"bench probe {probe.__name__}{args} failed:"
                           f"\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def _controller(suite_name: str, bench: str, size: str,
                engine: str) -> SimulationController:
    suite = SUITES[suite_name]
    config = dataclasses.replace(TimingConfig.small(), fast_path=True)
    controller = SimulationController(
        load_benchmark(bench, size=size), timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS)
    if engine == suite.engines[1]:
        # the switch REPRO_SLOW_PATH=1 / REPRO_MEGABLOCKS=0 flips at
        # construction: back to the oracle, or no chains built
        setattr(controller.machine, suite.switch, False)
    return controller


def engine_probe(suite_name: str, bench: str, size: str, engine: str,
                 mode: str, warm: int, measure: int) -> Dict:
    """Fresh controller, ``warm`` untimed instructions, time ``measure``."""
    run = getattr(_controller(suite_name, bench, size, engine),
                  "run_" + mode)
    run(warm)
    start = time.perf_counter()
    executed = run(measure)
    seconds = time.perf_counter() - start
    if mode == "timed":
        executed = executed[0]
    return {"instructions": executed, "seconds": seconds,
            "ips": executed / seconds if seconds > 0 else 0.0}


def store_job(root: str, policy: str, bench: str, size: str) -> Dict:
    """One job against the result and checkpoint stores under ``root``."""
    engine = ExperimentEngine(store=ResultStore(Path(root)
                                                / STORE_DIR_NAME), jobs=1)
    spec = make_spec(bench, policy, size)
    start = time.perf_counter()
    outcome = engine.run([spec], use_cache=False)[spec.key]
    seconds = time.perf_counter() - start
    if not outcome.ok:
        raise RuntimeError(f"bench job {bench}/{policy}: {outcome.error}")
    extra = outcome.result.extra or {}
    return {
        "seconds": seconds,
        "ipc": outcome.result.ipc,
        "checkpoints": extra.get("checkpoints") or {},
        "checkpoint_bytes": extra.get("checkpoint_bytes", 0),
        "checkpoint_delta_bytes": extra.get("checkpoint_delta_bytes", 0),
    }


# ----------------------------------------------------------------------
# runners


def _run_engines(suite: Suite, sizes: List[str], benchmarks: List[str],
                 repeats: int) -> Dict:
    """Every size x benchmark x mode x engine cell of an A/B matrix."""
    name, (first, second) = suite.name, suite.engines
    payload: Dict[str, Any] = {"modes": list(MODES), "sizes": {}}
    for size in sizes:
        warm, measure = WINDOWS[size]
        rows: Dict[str, Dict] = {}
        for bench in benchmarks:
            rows[bench] = {}
            for mode in MODES:
                cell: Dict[str, Any] = {}
                for engine in suite.engines:
                    # one untimed pass fills the process-wide compiled-
                    # code cache, so the probes see steady-state code,
                    # as a sweep booting many controllers does
                    getattr(_controller(name, bench, size, engine),
                            "run_" + mode)(warm + measure)
                    cell[engine] = _fastest(
                        _call(suite, engine_probe, name, bench, size,
                              engine, mode, warm, measure)
                        for _ in range(max(1, repeats)))
                base_ips = cell[second]["ips"]
                cell["speedup"] = (cell[first]["ips"] / base_ips
                                   if base_ips > 0 else 0.0)
                rows[bench][mode] = cell
        summary: Dict[str, Any] = {
            mode: {
                **{f"{engine}_ips_geomean": geomean(
                    rows[b][mode][engine]["ips"] for b in benchmarks)
                   for engine in suite.engines},
                "speedup_geomean": geomean(
                    rows[b][mode]["speedup"] for b in benchmarks),
            }
            for mode in MODES
        }
        summary["overall_speedup_geomean"] = geomean(
            rows[b][mode]["speedup"] for b in benchmarks for mode in MODES)
        payload["sizes"][size] = {
            "windows": {"warm": warm, "measure": measure},
            "benchmarks": rows, "summary": summary}
    return payload


def _store_cell(suite: Suite, bench: str, policy: str, size: str,
                repeats: int) -> Dict:
    """Cold then warm probes of one cell, each repeat on a fresh store."""
    pairs = []
    for _ in range(max(1, repeats)):
        with tempfile.TemporaryDirectory(prefix="repro-ckptbench-") \
                as root:
            cold = _call(suite, store_job, root, policy, bench, size)
            warm = _call(suite, store_job, root, policy, bench, size)
        if cold["ipc"] != warm["ipc"]:
            raise RuntimeError(
                f"cold/warm IPC diverged for {bench}/{policy}: "
                f"{cold['ipc']} vs {warm['ipc']}")
        pairs.append((cold, warm))
    colds, warms = zip(*pairs, strict=True)
    cold, warm = _fastest(colds), _fastest(warms)
    full_bytes = cold["checkpoint_bytes"]
    delta_bytes = cold["checkpoint_delta_bytes"]
    return {
        "cold_seconds": cold["seconds"],
        "warm_seconds": warm["seconds"],
        "speedup": (cold["seconds"] / warm["seconds"]
                    if warm["seconds"] > 0 else 0.0),
        "ipc": cold["ipc"],
        "ipc_equal": True,  # divergence raised above
        "warm_restores": warm["checkpoints"].get("restores", 0),
        "warm_profile_cache_hits":
            warm["checkpoints"].get("profile_cache_hits", 0),
        "delta_bytes": delta_bytes,
        "full_bytes": full_bytes,
        "delta_ratio": delta_bytes / full_bytes if full_bytes else 0.0,
    }


def _run_store_pairs(suite: Suite, sizes: List[str],
                     benchmarks: List[str], repeats: int) -> Dict:
    """Cold-vs-warm store wall clock of every benchmark x policy."""
    size, policies, accel = sizes[0], suite.policies, suite.policies[-1]
    rows = {bench: {policy: _store_cell(suite, bench, policy, size,
                                        repeats)
                    for policy in policies}
            for bench in benchmarks}
    accel_cells = [rows[bench][accel] for bench in benchmarks]
    summary: Dict[str, Any] = {
        "speedup_geomean": geomean(c["speedup"] for c in accel_cells),
        "overall_speedup_geomean": geomean(
            rows[b][p]["speedup"] for b in benchmarks for p in policies),
        "delta_ratio_max": max(
            (c["delta_ratio"] for c in accel_cells), default=0.0),
        "ipc_equal": all(rows[b][p]["ipc_equal"]
                         for b in benchmarks for p in policies),
    }
    for policy in policies:
        summary[f"{policy}_speedup_geomean"] = geomean(
            rows[b][policy]["speedup"] for b in benchmarks)
    return {"size": size, "policies": list(policies),
            "accel_policy": accel, "benchmarks": rows,
            "summary": summary}


def _run_frontier(suite: Suite, sizes: List[str], benchmarks: List[str],
                  repeats: int) -> Dict:
    """The modeled frontier: deterministic, so one pass is exact."""
    return frontier_payload(benchmarks, sizes[0], suite.policies)


def _ab_columns(first: str, second: str) -> Tuple[Tuple[str, str, str],
                                                  ...]:
    return ((first, f"{first}.ips", "{:,.0f}/s"),
            (second, f"{second}.ips", "{:,.0f}/s"),
            ("speedup", "speedup", "{:.2f}x"))


_ENGINE_GATES = (Gate("sizes.*.benchmarks.*.*.speedup", "ratio"),
                 Gate("sizes.*.summary.overall_speedup_geomean", "ratio"))
_ENGINE_HISTORY = (("sizes.*.summary.*.speedup_geomean", "higher"),
                   ("sizes.*.summary.overall_speedup_geomean", "higher"))

SUITES: Dict[str, Suite] = {suite.name: suite for suite in (
    Suite(
        name="hotpath",
        baseline="benchmarks/BENCH_hotpath.json",
        size="tiny",
        benchmarks=(),  # the experiment quick suite (REPRO_FULL_SUITE)
        runner=_run_engines,
        engines=("fast", "slow"), switch="fast_path",
        repeats=3,
        gates=_ENGINE_GATES,
        history=_ENGINE_HISTORY,
        rows="sizes.*.benchmarks.*.*",
        columns=_ab_columns("fast", "slow")),
    Suite(
        name="megablock",
        baseline="benchmarks/BENCH_megablock.json",
        size="small",
        benchmarks=MEGABLOCK_BENCHES,
        runner=_run_engines,
        engines=("mega", "fused"), switch="megablocks",
        repeats=3,
        gates=_ENGINE_GATES + (
            # the tier exists to be faster than the fused tier: a
            # baseline ratcheting below 1.3x is a regression however
            # slowly it happens
            Gate("sizes.small.summary.overall_speedup_geomean", "floor",
                 1.3, noisy=True),),
        history=_ENGINE_HISTORY,
        rows="sizes.*.benchmarks.*.*",
        columns=_ab_columns("mega", "fused")),
    Suite(
        name="checkpoint",
        baseline="benchmarks/BENCH_checkpoint.json",
        size="paper",
        benchmarks=CHECKPOINT_BENCHES,
        runner=_run_store_pairs,
        policies=("simpoint", "simpoint-ckpt"),
        fresh_process=True,
        repeats=2,
        gates=(Gate("benchmarks.*.simpoint-ckpt.speedup", "ratio"),
               Gate("summary.speedup_geomean", "ratio"),
               Gate("summary.speedup_geomean", "floor", 3.0),
               Gate("summary.delta_ratio_max", "ceiling", 0.25),
               # true: every cold/warm pair simulated identically
               Gate("summary.ipc_equal", "floor", 1)),
        history=(("summary.*speedup_geomean", "higher"),
                 ("summary.delta_ratio_max", "lower")),
        rows="benchmarks.*.*",
        columns=(("cold", "cold_seconds", "{:.2f}s"),
                 ("warm", "warm_seconds", "{:.2f}s"),
                 ("speedup", "speedup", "{:.2f}x"),
                 ("restores", "warm_restores", "{}"),
                 ("delta", "delta_ratio", "{:.1%}"))),
    Suite(
        name="frontier",
        baseline="benchmarks/BENCH_frontier.json",
        size="tiny",
        benchmarks=FRONTIER_BENCHMARKS,
        runner=_run_frontier,
        policies=FRONTIER_POLICIES,
        gates=(Gate("policies.*.speedup", "ratio"),
               # mean IPC error, within 1 percentage point
               Gate("policies.*.error", "drift", 0.01),
               Gate("summary.num_policies", "floor", 6)),
        history=(("policies.*.speedup", "higher"),),
        rows="policies.*",
        columns=(("error", "error", "{:.2%}"),
                 ("speedup", "speedup", "{:.1f}x"),
                 ("modeled s", "seconds", "{:.3f}"),
                 ("timed ivals", "timed_intervals", "{}"),
                 ("95% CI", "ci_relative_max", "+-{:.1%}"))),
)}


def run_bench(name: str, sizes: Iterable[str] = (),
              benchmarks: Iterable[str] = (), repeats: int = 0) -> Dict:
    """Run suite ``name``; empty arguments take the suite's defaults."""
    suite = SUITES[name]
    payload = suite.runner(
        suite, list(sizes) or suite.size.split(","),
        list(benchmarks) or list(suite.benchmarks or default_benchmarks()),
        repeats or suite.repeats)
    return {"schema_version": SCHEMA_VERSION, **payload}


# ----------------------------------------------------------------------
# payload paths


def select(node: Any, pattern: str) -> Iterator[Tuple[Tuple[str, ...],
                                                      Any]]:
    """``(path, value)`` of every node under ``pattern``'s dotted glob."""
    def walk(node: Any, segments: List[str],
             path: Tuple[str, ...]) -> Iterator[Tuple[Tuple[str, ...],
                                                      Any]]:
        if not segments:
            yield path, node
        elif isinstance(node, dict):
            for key, child in node.items():
                if fnmatchcase(key, segments[0]):
                    yield from walk(child, segments[1:], path + (key,))
    return walk(node, pattern.split("."), ())


def metric_name(path: Tuple[str, ...], pattern: str) -> str:
    """The path segments ``pattern`` leaves open, plus the leaf.

    ``sizes.tiny.summary.timed.speedup_geomean`` under
    ``sizes.*.summary.*.speedup_geomean`` is
    ``tiny.timed.speedup_geomean``; applied to the pattern itself it
    yields the glob every such name matches.
    """
    segments = pattern.split(".")
    kept = [key for key, glob in zip(path, segments, strict=True)
            if "*" in glob]
    if "*" not in segments[-1]:
        kept.append(path[-1])
    return ".".join(kept)


def _get(node: Any, path: Iterable[str]) -> Any:
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


# ----------------------------------------------------------------------
# the gate


def compare_to_baseline(name: str, current: Dict, baseline: Dict,
                        tolerance: float = DEFAULT_TOLERANCE) -> List[str]:
    """Gate failures of ``current`` (empty list = the gate passes)."""
    if "sizes" in baseline:
        # a run is gated on the sizes it measured: a tiny-only CI run
        # against a baseline that also carries the small suite
        baseline = dict(baseline, sizes={
            size: data for size, data in baseline["sizes"].items()
            if size in current.get("sizes", {})})
    problems: List[str] = []
    for gate in SUITES[name].gates:
        relative = gate.kind in ("ratio", "drift")
        for path, ref in select(baseline if relative else current,
                                gate.path):
            label = ".".join(path)
            value = _get(current, path)
            if value is None:
                problems.append(f"{label}: missing from run")
            elif gate.kind == "ratio":
                floor = ref * (1.0 - tolerance)
                if value < floor:
                    problems.append(
                        f"{label}: {value:.3g} < {floor:.3g} "
                        f"(baseline {ref:.3g} - {tolerance:.0%})")
            elif gate.kind == "drift":
                if abs(value - ref) > gate.bound:
                    problems.append(
                        f"{label}: {value:.4g} drifted from baseline "
                        f"{ref:.4g} by more than {gate.bound:g}")
            elif gate.kind == "floor":
                floor = gate.bound * (1.0 - tolerance if gate.noisy
                                      else 1.0)
                if value < floor:
                    problems.append(f"{label}: {value:.3g} below the "
                                    f"floor {floor:.3g}")
            elif value > gate.bound:
                problems.append(f"{label}: {value:.3g} above the "
                                f"ceiling {gate.bound:.3g}")
    return problems


# ----------------------------------------------------------------------
# rendering and baseline files


def _cell(node: Dict, key: str, spec: str) -> str:
    value = _get(node, key.split("."))
    return "-" if value is None else spec.format(value)


def format_table(name: str, payload: Dict) -> str:
    """Every cell of a payload, then its summary and run context."""
    suite = SUITES[name]
    headers = ("cell", *(header for header, _, _ in suite.columns))
    rows = [(metric_name(path, suite.rows),
             *(_cell(node, key, spec) for _, key, spec in suite.columns))
            for path, node in select(payload, suite.rows)]
    summary = [(".".join(path), value)
               for path, value in _leaves(payload) if "summary" in path]
    context = [f"{key}: {', '.join(map(str, value))}"
               for key, value in payload.items() if isinstance(value, list)]
    return "\n\n".join((render_table(headers, rows, title=f"{name} bench"),
                        render_table(("summary", "value"), summary),
                        "\n".join(context)))


def _leaves(node: Any, path: Tuple[str, ...] = ()
            ) -> Iterator[Tuple[Tuple[str, ...], Any]]:
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    else:
        yield path, node


def load_baseline(path: str) -> Dict:
    with open(path) as handle:
        return json.load(handle)


def write_baseline(payload: Dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    # a fresh-interpreter probe (see _call): NAME JSON-ARGS -> JSON
    print(json.dumps(globals()[sys.argv[1]](*json.loads(sys.argv[2]))))
