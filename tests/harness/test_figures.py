"""Tests for the table/figure builders (tiny scale, isolated cache)."""

import pytest

from repro.harness import figures


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    # the default store resolves REPRO_CACHE_DIR lazily per lookup
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))


def test_table1_lists_paper_parameters():
    text, data = figures.build_table1()
    assert "192" in text            # instruction window
    assert "1024KB" in text         # paper L2
    assert "16KB" in text           # scaled L2
    assert len(data["rows"]) >= 15


def test_table2_tiny_subset():
    text, data = figures.build_table2(size="tiny",
                                      benchmarks=["gzip", "mcf"])
    assert "gzip" in text and "mcf" in text
    assert data["gzip"]["instructions"] > 10_000
    assert data["mcf"]["simpoints"] >= 1


def test_figure2_correlation_positive():
    text, data = figures.build_figure2("gzip", size="tiny",
                                       max_intervals=60)
    assert "Figure 2" in text
    assert data["intervals"] > 10
    assert -1.0 <= data["correlation"] <= 1.0


def test_figure4_phase_detection():
    text, data = figures.build_figure4("gzip", size="tiny",
                                       variable="EXC")
    assert "Figure 4" in text
    assert 0.0 <= data["match_score"] <= 1.0


def test_policy_suite_numbers_shapes():
    numbers = figures.sweep_policies(
        ("full", "EXC-300-1M-10"), ["gzip", "mcf"], "tiny")
    assert numbers["full"]["speedup"] == 1.0
    policy = numbers["EXC-300-1M-10"]
    assert policy["speedup"] > 1.0
    assert set(policy["per_benchmark"]) == {"gzip", "mcf"}
    for record in policy["per_benchmark"].values():
        assert record["seconds"] > 0
        assert record["error"] >= 0


def test_paper_reference_points_complete():
    for policy in figures.FIGURE5_POLICIES:
        assert policy in figures.PAPER_FIGURE5
        error, speed = figures.PAPER_FIGURE5[policy]
        assert error > 0 and speed > 1
