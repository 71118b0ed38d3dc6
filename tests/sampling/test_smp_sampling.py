"""Per-core dynamic sampling on multi-core guests.

The SMP generalization of Algorithm 1: per-(core, variable) monitored
streams with gang scheduling — a trigger on *any* hart switches every
hart into the warm-up + timed interval together, so the chip is always
sampled as a unit.  Single-core behaviour (and its event payloads) must
stay byte-identical to the pre-SMP sampler.
"""

import dataclasses

import pytest

from repro import obs
from repro.harness.experiments import policy_factory
from repro.sampling import (DynamicSampler, FullTiming,
                            SimulationController,
                            SmpSimulationController, dynamic_config,
                            make_controller)
from repro.timing import TimingConfig
from repro.workloads import (SUITE_MACHINE_KWARGS, load_benchmark)

ENGINES = ("fused", "event", "interp")


def smp_controller(bench="lockcnt", engine="fused", n_cores=2,
                   tracer=None, size="tiny"):
    config = dataclasses.replace(TimingConfig.small(),
                                 fast_path=engine == "fused")
    controller = make_controller(
        load_benchmark(bench, size=size),
        timing_config=config,
        machine_kwargs={**SUITE_MACHINE_KWARGS, "n_cores": n_cores},
        tracer=tracer)
    if engine == "interp":
        for core in controller.machine.cores:
            core.fast_path = False  # REPRO_SLOW_PATH=1 equivalent
    return controller


# ----------------------------------------------------------------------
# controller routing


def test_make_controller_routes_parallel_to_smp():
    controller = make_controller(load_benchmark("pcq", size="tiny"),
                                 machine_kwargs=SUITE_MACHINE_KWARGS)
    assert isinstance(controller, SmpSimulationController)
    assert controller.n_cores == 2


def test_make_controller_keeps_sequential_single_core():
    controller = make_controller(load_benchmark("gzip", size="tiny"),
                                 machine_kwargs=SUITE_MACHINE_KWARGS)
    assert type(controller) is SimulationController
    assert controller.n_cores == 1


def test_explicit_core_count_wins():
    controller = make_controller(
        load_benchmark("pcq", size="tiny"),
        machine_kwargs={**SUITE_MACHINE_KWARGS, "n_cores": 4})
    assert controller.n_cores == 4


def test_plain_controller_drives_a_parallel_workload():
    """The one controller takes its harts from the booted machine, so
    the constructor the README teaches runs a parallel guest and gives
    the same result as the routed controller."""
    for policy_key in ("full", "CPU-300-1M-inf"):
        direct = policy_factory(policy_key)().run(
            SimulationController(load_benchmark("pcq", size="tiny")))
        routed = policy_factory(policy_key)().run(
            make_controller(load_benchmark("pcq", size="tiny")))
        assert direct.extra["cores"]["n"] == 2
        assert direct.canonical_dict() == routed.canonical_dict()


@pytest.mark.parametrize("bench", ("gzip", "pcq"))
def test_read_core_stat_rejects_cores_outside_the_guest(bench):
    controller = make_controller(load_benchmark(bench, size="tiny"),
                                 machine_kwargs=SUITE_MACHINE_KWARGS)
    controller.run_fast(2000)
    for core in range(controller.n_cores):
        assert controller.read_core_stat(core, "EXC") >= 0
    for core in (-1, controller.n_cores):
        with pytest.raises(IndexError):
            controller.read_core_stat(core, "EXC")


def test_every_mode_is_accounted_on_two_harts():
    controller = smp_controller(n_cores=2)
    assert controller.run_fast(3000) > 0
    assert controller.run_profile(3000) > 0
    assert controller.run_warming(3000) > 0
    assert controller.run_timed(3000)[0] > 0
    breakdown = controller.breakdown
    assert breakdown.total_instructions == controller.icount
    assert sorted(breakdown.wall_seconds) \
        == ["fast", "profile", "timed", "warming"]
    assert all(seconds > 0 for seconds in breakdown.wall_seconds.values())


def test_smp_controller_aggregates_stats():
    controller = smp_controller(n_cores=2)
    controller.run_fast(2000)
    per_core = controller.per_core_vm_stats()
    assert len(per_core) == 2
    snapshot = controller.vm_stats_snapshot()
    assert "per_core" not in snapshot
    for key in ("exceptions", "io_operations", "block_dispatches"):
        assert snapshot[key] == sum(stats[key] for stats in per_core)
    assert controller.icount == controller.machine.total_icount


# ----------------------------------------------------------------------
# gang scheduling


def gang_decisions(max_func=2, n_cores=2):
    sink = obs.RingBufferSink(capacity=100_000)
    controller = smp_controller(n_cores=n_cores,
                                tracer=obs.Tracer(sink))
    sampler = DynamicSampler(dynamic_config("EXC", 300, "1M", max_func))
    result = sampler.run(controller)
    return result, obs.decision_timeline(sink.events)


def test_every_interval_emits_one_decision_per_core():
    _, records = gang_decisions()
    by_interval = {}
    for record in records:
        by_interval.setdefault(record["interval"], []).append(record)
    assert by_interval
    for interval, group in by_interval.items():
        assert sorted(record["core"] for record in group) == [0, 1]
        for record in group:
            assert record["cores"] == 2


def test_gang_rule_fires_all_cores_together():
    """fired/forced are chip-wide verdicts: within one interval either
    every core's decision fired or none did, and a non-forced firing
    names at least one core whose own stream tripped Algorithm 1."""
    _, records = gang_decisions()
    by_interval = {}
    for record in records:
        by_interval.setdefault(record["interval"], []).append(record)
    fired_intervals = 0
    for group in by_interval.values():
        fired = {record["fired"] for record in group}
        forced = {record["forced"] for record in group}
        assert len(fired) == 1 and len(forced) == 1
        if fired.pop():
            fired_intervals += 1
            if not forced.pop():
                assert any(record["core_trigger"] for record in group)
    assert fired_intervals > 0


def test_per_core_warm_state_events():
    sink = obs.RingBufferSink(capacity=100_000)
    controller = smp_controller(n_cores=2, tracer=obs.Tracer(sink))
    FullTiming().run(controller)
    warm = [event.payload for event in sink.events
            if event.type == obs.EV_WARMSTATE]
    assert warm
    assert sorted({payload["core"] for payload in warm}) == [0, 1]
    for payload in warm:
        assert payload["cores"] == 2
        assert payload["instructions"] >= 0

    # one hart (a sequential guest or a one-hart parallel one): no
    # core/cores tags, the pre-SMP key order, and the interval's own
    # executed count
    for bench in ("gzip", "pcq"):
        sink = obs.RingBufferSink(capacity=100_000)
        controller = smp_controller(bench=bench, n_cores=1,
                                    tracer=obs.Tracer(sink))
        assert controller.n_cores == 1
        executed = []
        while not controller.finished:
            count, _ = controller.run_timed(5000)
            if count == 0:
                break
            executed.append(count)
        warm = [event.payload for event in sink.events
                if event.type == obs.EV_WARMSTATE]
        assert [payload["instructions"] for payload in warm] == executed
        for payload in warm:
            assert list(payload)[:6] == [
                "cycles", "instructions", "ipc", "branches",
                "mispredicts", "btb_misses"]


def test_full_timing_reports_chip_and_per_core_stats():
    result = FullTiming().run(smp_controller(n_cores=2))
    assert len(result.extra["per_core_stats"]) == 2
    cores_extra = result.extra["cores"]
    assert cores_extra["n"] == 2
    vm_stats = cores_extra["vm_stats"]
    assert len(vm_stats) == 2
    # chip instruction total is the sum of the per-hart streams
    assert result.total_instructions == sum(
        stats["instructions_total"] for stats in vm_stats)
    assert result.ipc > 0


# ----------------------------------------------------------------------
# engine parity (2-core, all three engines, several policies)

POLICIES = ("full", "smarts", "CPU-300-1M-inf", "EXC-300-1M-2")

_memo = {}


def run_policy_on_engine(policy_key, engine, bench="lockcnt"):
    key = (policy_key, engine, bench)
    if key in _memo:
        return _memo[key]
    sink = obs.RingBufferSink(capacity=200_000)
    controller = smp_controller(bench=bench, engine=engine,
                                tracer=obs.Tracer(sink))
    result = policy_factory(policy_key)().run(controller)
    decisions = [{k: v for k, v in record.items() if k != "ts"}
                 for record in obs.decision_timeline(sink.events)]
    _memo[key] = (result, decisions)
    return _memo[key]


@pytest.mark.parametrize("engine", ("event", "interp"))
@pytest.mark.parametrize("policy_key", POLICIES)
def test_policy_parity_two_cores(policy_key, engine):
    fast_result, fast_decisions = run_policy_on_engine(policy_key,
                                                       "fused")
    slow_result, slow_decisions = run_policy_on_engine(policy_key,
                                                       engine)
    assert abs(fast_result.ipc - slow_result.ipc) < 1e-9
    assert fast_result.total_instructions \
        == slow_result.total_instructions
    assert fast_result.timed_intervals == slow_result.timed_intervals
    assert fast_result.extra["vm_stats"] == slow_result.extra["vm_stats"]
    # the per-core monitors agree hart by hart, dispatches included
    assert fast_result.extra["cores"] == slow_result.extra["cores"]
    assert fast_decisions == slow_decisions


# ----------------------------------------------------------------------
# single-core byte parity


def test_single_core_results_unchanged_by_smp_layer():
    """An explicit 1-core SMP-capable call must produce the identical
    canonical result (and vm_stats) as the pre-SMP controller path."""
    def run(machine_kwargs, force_plain):
        workload = load_benchmark("gzip", size="tiny")
        if force_plain:
            controller = SimulationController(
                workload, machine_kwargs=machine_kwargs)
        else:
            controller = make_controller(workload,
                                         machine_kwargs=machine_kwargs)
        sampler = DynamicSampler(dynamic_config("EXC", 300, "1M", 10))
        return sampler.run(controller)

    plain = run(dict(SUITE_MACHINE_KWARGS), force_plain=True)
    routed = run(dict(SUITE_MACHINE_KWARGS), force_plain=False)
    assert routed.canonical_dict() == plain.canonical_dict()
    assert routed.extra["vm_stats"] == plain.extra["vm_stats"]
    assert "cores" not in routed.extra
