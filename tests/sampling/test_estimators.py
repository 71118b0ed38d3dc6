"""Tests for IPC estimators and accuracy metrics."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sampling import (MeanCpiEstimator, SegmentedIpcEstimator,
                            WeightedClusterEstimator, accuracy_error,
                            speedup)


# ----------------------------------------------------------------------
# segmented estimator (Dynamic Sampling)

def test_segmented_single_timed_interval():
    est = SegmentedIpcEstimator()
    est.add_timed(1000, 2.0)
    assert est.ipc() == pytest.approx(2.0)


def test_segmented_functional_inherits_last_timed():
    est = SegmentedIpcEstimator()
    est.add_timed(1000, 2.0)
    est.add_functional(3000)   # gets IPC 2.0
    assert est.ipc() == pytest.approx(2.0)
    est.add_timed(1000, 1.0)
    est.add_functional(1000)   # gets IPC 1.0
    # cycles: 4000/2 + 2000/1 = 4000; instructions 6000
    assert est.ipc() == pytest.approx(6000 / 4000)


def test_segmented_leading_functional_backfilled():
    est = SegmentedIpcEstimator()
    est.add_functional(5000)
    est.add_timed(1000, 3.0)
    assert est.ipc() == pytest.approx(3.0)


def test_segmented_no_measurements_assumes_unity():
    est = SegmentedIpcEstimator()
    est.add_functional(1000)
    assert est.ipc() == pytest.approx(1.0)


def test_segmented_empty():
    assert SegmentedIpcEstimator().ipc() == 0.0


def test_segmented_counts():
    est = SegmentedIpcEstimator()
    est.add_functional(100)
    est.add_timed(50, 1.5)
    assert est.total_instructions == 150


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10000),
                          st.floats(0.1, 3.0)), min_size=1, max_size=20))
def test_segmented_ipc_bounded_by_measurements(segments):
    est = SegmentedIpcEstimator()
    for instructions, ipc in segments:
        est.add_timed(instructions, ipc)
    lo = min(ipc for _, ipc in segments)
    hi = max(ipc for _, ipc in segments)
    assert lo - 1e-9 <= est.ipc() <= hi + 1e-9


class _SegmentList:
    """The list-based formula: keep every segment, re-fold on each call.

    Leading functional segments carry IPC ``None`` until the first
    measurement backfills them; an unmeasured segment counts at IPC 1.
    """

    def __init__(self):
        self.segments = []
        self.last_ipc = None

    def add_functional(self, instructions):
        if instructions > 0:
            self.segments.append((instructions, self.last_ipc))

    def add_timed(self, instructions, ipc):
        if instructions <= 0:
            return
        if ipc <= 0:
            ipc = self.last_ipc if self.last_ipc else 1e-6
        self.segments.append((instructions, ipc))
        if self.last_ipc is None:
            self.segments = [(count, ipc if seg is None else seg)
                             for count, seg in self.segments]
        self.last_ipc = ipc

    def cycles(self):
        cycles = 0.0
        for count, ipc in self.segments:
            if ipc is None or ipc <= 0:
                ipc = 1.0
            cycles += count / ipc
        return cycles

    def ipc(self):
        total = sum(count for count, _ in self.segments)
        return total / self.cycles() if total else 0.0


_FUNCTIONAL = st.tuples(st.just("functional"), st.integers(0, 10**6))
_TIMED = st.tuples(
    st.just("timed"), st.integers(0, 10**4),
    st.one_of(st.floats(1e-3, 8.0),
              st.sampled_from([0.0, -0.0, -1.5])))   # <= 0: fallback


@settings(max_examples=200, deadline=None)
@given(st.lists(_FUNCTIONAL, max_size=5),
       st.lists(st.one_of(_FUNCTIONAL, _TIMED), max_size=40))
def test_segmented_running_totals_are_bit_identical(leading, ops):
    est = SegmentedIpcEstimator()
    reference = _SegmentList()
    for op in leading + ops:
        getattr(est, f"add_{op[0]}")(*op[1:])
        getattr(reference, f"add_{op[0]}")(*op[1:])
        # exact equality: the running fold adds the same terms in the
        # same order as the re-fold over the list
        assert est.ipc() == reference.ipc()
        assert est.estimated_cycles() == reference.cycles()
        assert est.total_instructions == sum(
            count for count, _ in reference.segments)


# ----------------------------------------------------------------------
# weighted cluster estimator (SimPoint)

def test_weighted_cluster_single():
    est = WeightedClusterEstimator()
    est.add_cluster(1.0, 2.0)
    assert est.ipc() == pytest.approx(2.0)


def test_weighted_cluster_harmonic_combination():
    est = WeightedClusterEstimator()
    est.add_cluster(0.5, 1.0)
    est.add_cluster(0.5, 3.0)
    # half the instructions at IPC 1, half at IPC 3:
    # cycles ~ 0.5/1 + 0.5/3 = 2/3 -> ipc = 1.5
    assert est.ipc() == pytest.approx(1.5)


def test_weighted_cluster_rejects_negative_weight():
    with pytest.raises(ValueError):
        WeightedClusterEstimator().add_cluster(-0.1, 1.0)


def test_weighted_cluster_empty():
    assert WeightedClusterEstimator().ipc() == 0.0


# ----------------------------------------------------------------------
# mean-CPI estimator (SMARTS)

def test_mean_cpi_weighted_by_instructions():
    est = MeanCpiEstimator()
    est.add_unit(100, 100)   # CPI 1
    est.add_unit(300, 900)   # CPI 3
    # weighted: 1000 cycles / 400 instr = 2.5
    assert est.cpi() == pytest.approx(2.5)
    assert est.ipc() == pytest.approx(0.4)


def test_mean_cpi_confidence_shrinks_with_samples():
    wide = MeanCpiEstimator()
    for cpi in (1.0, 2.0):
        wide.add_unit(100, int(100 * cpi))
    narrow = MeanCpiEstimator()
    for _ in range(50):
        narrow.add_unit(100, 100)
        narrow.add_unit(100, 200)
    assert narrow.confidence_interval() < wide.confidence_interval()


def test_mean_cpi_insufficient_samples():
    est = MeanCpiEstimator()
    assert est.confidence_interval() == math.inf
    est.add_unit(100, 100)
    assert est.confidence_interval() == math.inf
    assert est.relative_error_bound() == math.inf


def test_mean_cpi_empty():
    est = MeanCpiEstimator()
    assert est.cpi() == 0.0
    assert est.ipc() == 0.0


# ----------------------------------------------------------------------
# metrics

def test_accuracy_error():
    assert accuracy_error(1.1, 1.0) == pytest.approx(0.1)
    assert accuracy_error(0.9, 1.0) == pytest.approx(0.1)
    assert accuracy_error(1.0, 0.0) == math.inf


def test_speedup():
    assert speedup(100.0, 10.0) == pytest.approx(10.0)
    assert speedup(100.0, 0.0) == math.inf
