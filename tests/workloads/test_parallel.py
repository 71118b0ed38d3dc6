"""Functional correctness of the multi-threaded workloads.

Each parallel benchmark computes a closed-form-checkable result in
shared memory; these tests read it back after the run and verify it at
1, 2 and 4 harts (N=1 exercises the solo fallback paths).
"""

import pytest

from repro.kernel import GLOBALS_BASE
from repro.workloads import (DEFAULT_PARALLEL_CORES, SUITE_MACHINE_KWARGS,
                             build_parallel, default_benchmark_cores,
                             is_parallel_benchmark, load_benchmark,
                             parallel_benchmark_names)
from repro.workloads.parallel import PARALLEL_ROUNDS

CORE_COUNTS = (1, 2, 4)


def run_bench(name, n_cores, size="tiny"):
    workload = build_parallel(name, size=size)
    system = workload.boot(n_cores=n_cores, **SUITE_MACHINE_KWARGS)
    system.run_to_completion()
    assert system.machine.halted
    return system


def region_base(system):
    base = system.machine.cores[0].mmu.read_u64(GLOBALS_BASE)
    assert base != 0
    return base


@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_pcq_sums_every_item_exactly_once(n_cores):
    workload = build_parallel("pcq", size="tiny")
    n_items = int(workload.ref_input.split("x")[0])
    system = run_bench("pcq", n_cores)
    base = region_base(system)
    mmu = system.machine.cores[0].mmu
    results_base = base + n_items * 16
    total = sum(mmu.read_u64(results_base + core * 8)
                for core in range(max(n_cores, 1)))
    # round r produces values (1+r)..(n_items+r): each item consumed
    # exactly once, no value lost or double-counted
    expected = sum(n_items * (n_items + 1) // 2 + n_items * r
                   for r in range(PARALLEL_ROUNDS))
    assert total == expected


@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_lockcnt_counter_is_exact(n_cores):
    workload = build_parallel("lockcnt", size="tiny")
    increments = int(workload.ref_input.split("x")[0])
    system = run_bench("lockcnt", n_cores)
    base = region_base(system)
    counter = system.machine.cores[0].mmu.read_u64(base + 8)
    # the spinlock admits exactly one hart per increment: no lost
    # updates under contention
    assert counter == increments * PARALLEL_ROUNDS * n_cores
    # the lock is released at the end
    assert system.machine.cores[0].mmu.read_u64(base) == 0


@pytest.mark.parametrize("n_cores", CORE_COUNTS)
def test_mtstencil_completes_deterministically(n_cores):
    first = run_bench("mtstencil", n_cores)
    second = run_bench("mtstencil", n_cores)
    icounts = [core.state.icount for core in first.machine.cores]
    assert icounts == [core.state.icount
                       for core in second.machine.cores]
    assert all(icount > 0 for icount in icounts)


def test_mtstencil_result_is_core_count_invariant():
    """The stencil is data-parallel: the converged array must not
    depend on how many harts computed it."""
    workload = build_parallel("mtstencil", size="tiny")
    n = int(workload.ref_input.split("x")[0])

    def final_array(n_cores):
        system = run_bench("mtstencil", n_cores)
        base = region_base(system)
        mmu = system.machine.cores[0].mmu
        # an odd number of total sweeps may leave the result in either
        # ping-pong array; read both and compare the pair
        one = tuple(mmu.read_u64(base + i * 8) for i in range(n))
        two = tuple(mmu.read_u64(base + (n + i) * 8) for i in range(n))
        return one, two

    assert final_array(1) == final_array(2) == final_array(4)


# ----------------------------------------------------------------------
# suite integration


def test_parallel_names_are_registered():
    names = parallel_benchmark_names()
    assert set(names) == {"pcq", "mtstencil", "lockcnt"}
    for name in names:
        assert is_parallel_benchmark(name)
        assert default_benchmark_cores(name) == DEFAULT_PARALLEL_CORES
    assert not is_parallel_benchmark("gzip")
    assert default_benchmark_cores("gzip") == 1


def test_load_benchmark_serves_parallel_suite():
    workload = load_benchmark("pcq", size="tiny")
    assert workload.parallel
    assert workload.n_cores == DEFAULT_PARALLEL_CORES
    # memoised like the SPEC suite
    assert load_benchmark("pcq", size="tiny") is workload


def test_parallel_boot_defaults_to_smp():
    from repro.vm.smp import SmpMachine
    workload = load_benchmark("lockcnt", size="tiny")
    system = workload.boot(**SUITE_MACHINE_KWARGS)
    assert isinstance(system.machine, SmpMachine)
    assert system.machine.n_cores == DEFAULT_PARALLEL_CORES
    # sequential workloads keep the single-core boot path
    plain = load_benchmark("gzip", size="tiny").boot(
        **SUITE_MACHINE_KWARGS)
    assert not isinstance(plain.machine, SmpMachine)
