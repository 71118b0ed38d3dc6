"""Checkpoints of multi-core guests.

The SMP extension of the checkpoint format: one per-hart snapshot
(register file, VM statistics, profile counts, pending IRQs, resident
fast-cache blocks) over the single shared frame image.  Round trips
must be bit-identical per core, delta dedup must keep working against
the shared dirty-frame write generations, and hart-count mismatches
must be rejected loudly.
"""

import pytest

from repro.kernel.checkpoint import restore, take
from repro.workloads import SUITE_MACHINE_KWARGS, build_parallel


def boot_smp_system(n_cores=2, bench="lockcnt"):
    workload = build_parallel(bench, size="tiny")
    return workload.boot(n_cores=n_cores, **SUITE_MACHINE_KWARGS)


def per_core_snapshots(system):
    return [{"cpu": core.state.snapshot(),
             "stats": core.stats.snapshot()}
            for core in system.machine.cores]


def test_checkpoint_records_one_snapshot_per_hart():
    system = boot_smp_system(n_cores=2)
    system.run(3000)
    checkpoint = take(system)
    assert checkpoint.cores is not None and len(checkpoint.cores) == 2
    for core, snap in zip(system.machine.cores, checkpoint.cores):
        assert snap["cpu"] == core.state.snapshot()


def test_round_trip_restores_every_register_file():
    system = boot_smp_system(n_cores=2)
    system.run(3000)
    checkpoint = take(system)
    at_take = per_core_snapshots(system)

    system.run(2000)  # diverge on both harts
    assert per_core_snapshots(system) != at_take
    restore(system, checkpoint)
    assert per_core_snapshots(system) == at_take


def test_rewound_run_is_bit_identical_to_straight_run():
    straight = boot_smp_system(n_cores=2)
    straight.run(3000)
    straight.run_to_completion()

    rewound = boot_smp_system(n_cores=2)
    rewound.run(3000)
    checkpoint = take(rewound)
    rewound.run(2500)           # diverge
    restore(rewound, checkpoint)
    rewound.run_to_completion()

    assert per_core_snapshots(rewound) == per_core_snapshots(straight)


def test_delta_dedup_over_shared_frames():
    """Dirty-frame tracking is shared: a delta child stores only the
    frames *any* hart dirtied since the parent, once each."""
    system = boot_smp_system(n_cores=2)
    system.run(4000)
    parent = take(system)
    assert parent.delta_bytes == parent.memory_bytes  # full snapshot
    system.run(1000)  # both harts touch the shared region
    child = take(system, parent=parent)
    assert child.delta_bytes < child.memory_bytes
    # the logical frame image equals an independent full snapshot
    full = take(system)
    assert child.frames == full.frames


def test_delta_restore_round_trips():
    system = boot_smp_system(n_cores=2)
    system.run(4000)
    parent = take(system)
    system.run(1000)
    delta = take(system, parent=parent)
    at_delta = per_core_snapshots(system)
    system.run_to_completion()
    end = per_core_snapshots(system)

    restore(system, delta)
    assert per_core_snapshots(system) == at_delta
    system.run_to_completion()
    assert per_core_snapshots(system) == end


def test_hart_count_mismatch_is_rejected():
    two = boot_smp_system(n_cores=2)
    two.run(2000)
    checkpoint = take(two)
    four = boot_smp_system(n_cores=4)
    four.run(2000)
    with pytest.raises(ValueError):
        restore(four, checkpoint)
