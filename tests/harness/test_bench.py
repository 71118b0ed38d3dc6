"""The bench harness: one gate matrix over every suite in ``SUITES``."""

import copy
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness import bench
from repro.harness.bench import SUITES, compare_to_baseline, select

REPO = Path(__file__).resolve().parents[2]


def engine_payload(name, speedup):
    first, second = SUITES[name].engines
    cell = {first: {"ips": 1000.0 * speedup, "seconds": 1.0,
                    "instructions": 1000 * speedup},
            second: {"ips": 1000.0, "seconds": 1.0, "instructions": 1000},
            "speedup": speedup}
    return {
        "schema_version": bench.SCHEMA_VERSION,
        "modes": list(bench.MODES),
        "sizes": {SUITES[name].size: {
            "windows": {"warm": 10, "measure": 20},
            "benchmarks": {bench_name: {mode: copy.deepcopy(cell)
                                        for mode in bench.MODES}
                           for bench_name in ("gzip", "mcf")},
            "summary": {
                **{mode: {f"{first}_ips_geomean": 1000.0 * speedup,
                          f"{second}_ips_geomean": 1000.0,
                          "speedup_geomean": speedup}
                   for mode in bench.MODES},
                "overall_speedup_geomean": speedup,
            },
        }},
    }


def checkpoint_payload(speedup):
    def cell(ratio, delta_ratio):
        return {"cold_seconds": ratio, "warm_seconds": 1.0,
                "speedup": ratio, "ipc": 1.0, "ipc_equal": True,
                "warm_restores": 10, "warm_profile_cache_hits": 1,
                "delta_bytes": int(409600 * delta_ratio),
                "full_bytes": 409600, "delta_ratio": delta_ratio}
    return {
        "schema_version": bench.SCHEMA_VERSION,
        "size": "paper",
        "policies": ["simpoint", "simpoint-ckpt"],
        "accel_policy": "simpoint-ckpt",
        "benchmarks": {name: {"simpoint": cell(2.0, 0.0),
                              "simpoint-ckpt": cell(speedup, 0.02)}
                       for name in ("mcf", "swim")},
        "summary": {
            "speedup_geomean": speedup,
            "simpoint_speedup_geomean": 2.0,
            "simpoint-ckpt_speedup_geomean": speedup,
            "overall_speedup_geomean": bench.geomean([speedup, 2.0]),
            "delta_ratio_max": 0.02,
            "ipc_equal": True,
        },
    }


def frontier_payload(speedup):
    policies = {f"policy-{i}": {"error": 0.05, "speedup": speedup,
                                "seconds": 0.25, "timed_intervals": 3}
                for i in range(6)}
    policies["policy-1"]["ci_relative_max"] = 0.173
    return {
        "schema_version": bench.SCHEMA_VERSION,
        "size": "tiny",
        "benchmarks": ["gzip"],
        "policies": policies,
        "frontier": ["policy-0"],
        "summary": {"num_policies": len(policies), "num_frontier": 1,
                    "best_error": 0.05, "best_speedup": speedup},
    }


#: a minimal payload of each suite's shape, every gated ratio = speedup
PAYLOADS = {
    "hotpath": lambda speedup: engine_payload("hotpath", speedup),
    "megablock": lambda speedup: engine_payload("megablock", speedup),
    "checkpoint": checkpoint_payload,
    "frontier": frontier_payload,
}

#: absolute gates, pinned by value: (suite, leaf, holds, fails)
ABSOLUTE_GATES = [
    ("checkpoint", "summary.speedup_geomean", 3.0, 2.9),
    ("checkpoint", "summary.delta_ratio_max", 0.25, 0.26),
    ("checkpoint", "summary.ipc_equal", True, False),
    ("frontier", "summary.num_policies", 6, 5),
    # 1.3x less the 25% run tolerance: 0.975x
    ("megablock", "sizes.small.summary.overall_speedup_geomean",
     0.98, 0.97),
]

SIZED = [name for name in SUITES if "sizes" in PAYLOADS[name](4.0)]


def ratio_gates(name):
    return [gate for gate in SUITES[name].gates if gate.kind == "ratio"]


def set_leaf(payload, path, value):
    *parents, leaf = path.split(".")
    node = payload
    for key in parents:
        node = node[key]
    node[leaf] = value


def test_matrix_covers_every_suite():
    assert set(PAYLOADS) == set(SUITES)


def test_package_import_leaves_the_harness_unloaded():
    # sweep children import repro.harness: the bench harness must not
    # add to their start-up cost
    code = ("import sys, repro.harness; "
            "print('repro.harness.bench' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(REPO / "src")))
    assert out.stdout.strip() == "False"


#: each suite's headline geomean and the cell speedups it aggregates,
#: within one measured section of the payload
HEADLINE_GEOMEANS = {
    "hotpath": ("summary.overall_speedup_geomean",
                "benchmarks.*.*.speedup"),
    "megablock": ("summary.overall_speedup_geomean",
                  "benchmarks.*.*.speedup"),
    "checkpoint": ("summary.speedup_geomean",
                   "benchmarks.*.simpoint-ckpt.speedup"),
}


@pytest.mark.parametrize("name", HEADLINE_GEOMEANS)
def test_geomean(name):
    assert bench.geomean([2.0, 8.0]) == pytest.approx(4.0)
    assert bench.geomean([]) == 0.0
    assert bench.geomean([0.0, 4.0]) == pytest.approx(4.0)
    # the committed headline is the geomean of the cells it covers
    headline, cells = HEADLINE_GEOMEANS[name]
    baseline = bench.load_baseline(str(REPO / SUITES[name].baseline))
    sections = (baseline["sizes"].values() if "sizes" in baseline
                else [baseline])
    for section in sections:
        (_, recorded), = select(section, headline)
        speedups = [value for _, value in select(section, cells)]
        assert speedups
        assert recorded == pytest.approx(bench.geomean(speedups))


@pytest.mark.parametrize("name", SUITES)
def test_gate_passes_within_tolerance(name):
    # 20% down, tolerance 25%
    current = PAYLOADS[name](3.2)
    assert compare_to_baseline(name, current, PAYLOADS[name](4.0)) == []


@pytest.mark.parametrize("name", SUITES)
def test_gate_flags_every_ratio_gate_on_regression(name):
    # 37.5% down: every per-cell and overall ratio gate fires
    problems = compare_to_baseline(name, PAYLOADS[name](2.5),
                                   PAYLOADS[name](4.0))
    for gate in ratio_gates(name):
        paths = [".".join(path) for path, _ in
                 select(PAYLOADS[name](4.0), gate.path)]
        assert paths
        assert any(problem.startswith(paths[0] + ":")
                   for problem in problems), gate.path


@pytest.mark.parametrize("name", SUITES)
def test_gate_flags_missing_cell(name):
    baseline = PAYLOADS[name](4.0)
    current = PAYLOADS[name](4.0)
    (path, _), *_ = select(current, ratio_gates(name)[0].path)
    *parents, cell, _ = path
    node = current
    for key in parents:
        node = node[key]
    del node[cell]
    problems = compare_to_baseline(name, current, baseline)
    assert any("missing from run" in problem and cell in problem
               for problem in problems)


@pytest.mark.parametrize("name", SIZED)
def test_gate_ignores_sizes_the_run_did_not_measure(name):
    # a tiny-only CI run gates against the baseline's tiny section even
    # when the committed baseline also carries the small suite
    baseline = PAYLOADS[name](4.0)
    (_, section), = baseline["sizes"].items()
    baseline["sizes"]["other"] = copy.deepcopy(section)
    set_leaf(baseline, "sizes.other.summary.overall_speedup_geomean", 99.0)
    assert compare_to_baseline(name, PAYLOADS[name](4.0), baseline) == []


@pytest.mark.parametrize("name, leaf, holds, fails", ABSOLUTE_GATES)
def test_absolute_gate_holds_whatever_the_baseline(name, leaf, holds,
                                                   fails):
    for value, expect_problem in ((holds, False), (fails, True)):
        # identical baseline: only the absolute bound can fire
        current = PAYLOADS[name](4.0)
        set_leaf(current, leaf, value)
        problems = compare_to_baseline(name, current,
                                       copy.deepcopy(current))
        assert any(problem.startswith(leaf + ":")
                   for problem in problems) == expect_problem, problems


@pytest.mark.parametrize("drift, flagged", [
    (0.02, True), (-0.02, True), (0.005, False), (-0.005, False)])
def test_frontier_error_drift_is_one_point_either_way(drift, flagged):
    current = frontier_payload(4.0)
    current["policies"]["policy-0"]["error"] += drift
    problems = compare_to_baseline("frontier", current,
                                   frontier_payload(4.0))
    assert any(problem.startswith("policies.policy-0.error:")
               for problem in problems) == flagged


@pytest.mark.parametrize("name", SUITES)
def test_format_table_renders_every_cell(name):
    payload = PAYLOADS[name](4.0)
    text = bench.format_table(name, payload)
    suite = SUITES[name]
    for path, _ in select(payload, suite.rows):
        assert bench.metric_name(path, suite.rows) in text
    for header, _, _ in suite.columns:
        assert header in text
    for key, value in payload.items():
        if isinstance(value, list):
            assert f"{key}: {', '.join(value)}" in text
    assert "summary" in text


def test_format_table_formats_optional_columns():
    text = bench.format_table("frontier", frontier_payload(4.0))
    assert "+-17.3%" in text  # policy-1's confidence interval
    assert "5.00%" in text    # mean error


@pytest.mark.parametrize("name", SUITES)
def test_baseline_roundtrip(tmp_path, name):
    path = tmp_path / "baseline.json"
    bench.write_baseline(PAYLOADS[name](4.0), str(path))
    assert bench.load_baseline(str(path)) == PAYLOADS[name](4.0)


@pytest.mark.parametrize("name", SUITES)
def test_committed_baseline_passes_its_own_gate(name):
    baseline = bench.load_baseline(str(REPO / SUITES[name].baseline))
    assert baseline["schema_version"] == bench.SCHEMA_VERSION
    assert compare_to_baseline(name, baseline, baseline) == []


@pytest.mark.parametrize("name", ["hotpath", "megablock"])
def test_engine_matrix_end_to_end(name):
    """One real A/B cell per mode at the tiny size."""
    payload = bench.run_bench(name, sizes=["tiny"], benchmarks=["art"],
                              repeats=1)
    cells = payload["sizes"]["tiny"]["benchmarks"]["art"]
    assert set(cells) == set(bench.MODES)
    for cell in cells.values():
        for engine in SUITES[name].engines:
            assert cell[engine]["instructions"] > 0
            assert cell[engine]["ips"] > 0
        assert cell["speedup"] > 0
    assert compare_to_baseline(name, payload, payload) == []


def test_checkpoint_store_pairs_end_to_end():
    """Real cold/warm fresh-process probes at the tiny size."""
    payload = bench.run_bench("checkpoint", sizes=["tiny"],
                              benchmarks=["art"], repeats=1)
    assert payload["summary"]["ipc_equal"]
    cell = payload["benchmarks"]["art"]["simpoint-ckpt"]
    assert cell["cold_seconds"] > 0
    assert cell["warm_seconds"] > 0
    assert cell["warm_restores"] > 0
    assert 0 <= cell["delta_ratio"] <= 1
