"""Checkpoint equivalence: restores must be invisible to every result.

Two independent guarantees:

* **round trip** — taking a checkpoint mid-run (including mid-event
  mode), diverging, and restoring must leave the guest-visible machine
  (architectural state + the complete VM statistics snapshot)
  bit-identical to never having diverged, under all three execution
  engines (fused fast path, per-instruction event engine, interpreter
  oracle);
* **policy parity** — every sampling policy must produce an identical
  canonical result with checkpoint acceleration off
  (``REPRO_CHECKPOINTS=0``), against a cold store, and against a warm
  store (where fast-forwards restore and profiles/selections are served
  from disk).
"""

import dataclasses

import pytest

from repro.exec.ckptstore import (CheckpointLadder, CheckpointStore,
                                  program_fingerprint)
from repro.kernel.checkpoint import restore, take
from repro.sampling import (CheckpointedSimPointSampler, SimPointConfig,
                            SimPointSampler, SimulationController)
from repro.timing import TimingConfig
from repro.workloads import (SUITE_MACHINE_KWARGS, WorkloadBuilder,
                             load_benchmark)

ENGINES = ("fused", "event", "interp")


def make_controller(engine, size="tiny"):
    config = dataclasses.replace(TimingConfig.small(),
                                 fast_path=engine == "fused")
    controller = SimulationController(
        load_benchmark("gzip", size=size),
        timing_config=config,
        machine_kwargs=SUITE_MACHINE_KWARGS)
    if engine == "interp":
        controller.machine.fast_path = False  # REPRO_SLOW_PATH=1
    return controller


def run_schedule(engine, rewind):
    controller = make_controller(engine)
    controller.run_fast(3000)
    controller.run_timed(900)
    controller.run_warming(700)
    if rewind:
        checkpoint = take(controller.system)
        # diverge hard: more detailed execution, then rewind
        controller.run_timed(1500)
        controller.run_warming(400)
        restore(controller.system, checkpoint)
    controller.run_timed(1200)
    controller.run_warming(300)
    controller.run_timed(800)
    return controller


@pytest.mark.parametrize("engine", ENGINES)
def test_round_trip_parity_all_engines(engine):
    straight = run_schedule(engine, rewind=False)
    rewound = run_schedule(engine, rewind=True)
    assert rewound.machine.state.snapshot() \
        == straight.machine.state.snapshot()
    assert rewound.machine.stats.snapshot() \
        == straight.machine.stats.snapshot()


# ----------------------------------------------------------------------
# policy parity: off / cold store / warm store


def parity_workload():
    builder = WorkloadBuilder("ckpt-parity", seed=3)
    for _ in range(3):
        builder.phase("crc", iters=4000)
        builder.phase("stream", n=512, iters=8, reuse_key="ws")
        builder.phase("branchy", iters=4000)
    return builder.build()


CONFIG = SimPointConfig(interval_length=1000, max_clusters=10,
                        warmup_length=2000)
MAV_CONFIG = dataclasses.replace(CONFIG, mav=True)


def run_policy_once(sampler_cls, store_root=None, config=CONFIG):
    workload = parity_workload()
    controller = SimulationController(
        workload, machine_kwargs=SUITE_MACHINE_KWARGS)
    if store_root is not None:
        controller.attach_checkpoints(CheckpointLadder(
            CheckpointStore(store_root),
            program_fingerprint(workload), "testcfg"))
    result = sampler_cls(config).run(controller)
    return result.canonical_dict(), dict(controller.checkpoint_stats)


@pytest.mark.parametrize("sampler_cls, config", [
    pytest.param(SimPointSampler, CONFIG, id="SimPointSampler"),
    pytest.param(CheckpointedSimPointSampler, CONFIG,
                 id="CheckpointedSimPointSampler"),
    # the MAV-augmented profile is stored under its own artifact name
    pytest.param(SimPointSampler, MAV_CONFIG, id="SimPointSampler-mav"),
])
def test_policy_parity_off_cold_warm(sampler_cls, config, tmp_path,
                                     monkeypatch):
    store = tmp_path / "ckpt"
    monkeypatch.setenv("REPRO_CHECKPOINTS", "0")
    disabled, _ = run_policy_once(sampler_cls, store, config)

    monkeypatch.setenv("REPRO_CHECKPOINTS", "1")
    no_store, _ = run_policy_once(sampler_cls, None, config)
    cold, cold_stats = run_policy_once(sampler_cls, store, config)
    warm, warm_stats = run_policy_once(sampler_cls, store, config)

    assert disabled == no_store == cold == warm

    # the warm run actually consumed the store (every policy memoizes
    # its profile; the recorder-driven policy also restores rungs — a
    # plain SimPoint whose first warm-up window starts at icount 0 has
    # no pristine gap to checkpoint)
    assert cold_stats["profile_cache_hits"] == 0
    assert warm_stats["profile_cache_hits"] > 0
    if sampler_cls is CheckpointedSimPointSampler:
        assert cold_stats["published"] > 0
        assert warm_stats["restores"] > 0
        assert warm_stats["skipped_instructions"] > 0


def test_warm_run_skips_wall_clock_not_charges(tmp_path):
    """The cost model is warmth-invariant: identical modeled seconds
    and instruction charges, only host wall time may change."""
    cold, _ = run_policy_once(CheckpointedSimPointSampler,
                              tmp_path / "ckpt")
    warm, _ = run_policy_once(CheckpointedSimPointSampler,
                              tmp_path / "ckpt")
    for key in ("modeled_seconds", "total_instructions",
                "profile_instructions", "fast_instructions",
                "warming_instructions", "timed_instructions"):
        assert warm[key] == cold[key], key
