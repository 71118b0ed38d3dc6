"""Tests for the accuracy-vs-cost frontier sweep and its baseline.

The frontier's gate (policy floor, speedup ratios, error drift) is
checked with every other suite's in ``test_bench.py``.
"""

import json
import os

import pytest

from repro.harness import FRONTIER_POLICIES
from repro.harness.bench import SCHEMA_VERSION, SUITES, compare_to_baseline

BASELINE_PATH = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "BENCH_frontier.json")


def test_committed_baseline_is_valid_and_self_consistent():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    assert baseline["schema_version"] == SCHEMA_VERSION
    # the committed sweep is exactly the advertised policy zoo
    assert set(baseline["policies"]) == set(FRONTIER_POLICIES)
    # every frontier member is a swept policy, and the baseline passes
    # its own gate
    assert set(baseline["frontier"]) <= set(baseline["policies"])
    assert compare_to_baseline("frontier", baseline, baseline) == []
    for cell in baseline["policies"].values():
        assert cell["speedup"] > 0
        assert 0 <= cell["error"] < 1  # mean IPC error stays sane


def test_committed_baseline_covers_every_policy_family():
    with open(BASELINE_PATH) as handle:
        baseline = json.load(handle)
    families = {"smarts", "simpoint", "simpoint-mav", "stratified-12",
                "rankedset-3", "CPU-300-1M-inf"}
    assert families <= set(baseline["policies"])


def test_min_policies_matches_issue_contract():
    (floor,) = [gate for gate in SUITES["frontier"].gates
                if gate.path == "summary.num_policies"]
    assert (floor.kind, floor.bound) == ("floor", 6)
    assert len(FRONTIER_POLICIES) >= floor.bound


def test_frontier_policies_all_resolve():
    from repro.harness import policy_factory
    for key in FRONTIER_POLICIES:
        policy_factory(key)  # raises KeyError on an unknown key


def test_unknown_parameterized_keys_rejected():
    from repro.harness import policy_factory
    for key in ("stratified-x", "rankedset-", "stratified-3.5"):
        with pytest.raises(KeyError):
            policy_factory(key)
