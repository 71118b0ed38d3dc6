"""Tests for full-system checkpoint/restore."""

import pytest

from repro.isa import assemble
from repro.kernel import boot
from repro.kernel.checkpoint import take, restore
from repro.workloads import WorkloadBuilder


def build_system():
    builder = WorkloadBuilder("ckpt", seed=9)
    builder.phase("crc", iters=5000)
    builder.phase("stream", n=512, iters=6)
    builder.phase("console_io", nbytes=24)
    builder.phase("disk_io", nsect=2, reps=1)
    builder.phase("branchy", iters=8000)
    return builder.build()


def run_reference():
    system = build_system().boot()
    system.run_to_completion()
    return system


def test_restore_resumes_bit_identically():
    reference = run_reference()

    system = build_system().boot()
    system.run(40_000)
    checkpoint = take(system)
    # diverge: run to the end once
    system.run_to_completion()
    first_end = system.machine.state.snapshot()
    assert first_end == reference.machine.state.snapshot()

    # rewind and replay: must reach the identical end state
    restore(system, checkpoint)
    assert system.machine.state.icount <= 40_000 + 64
    system.run_to_completion()
    assert system.machine.state.snapshot() == first_end
    assert system.output == reference.output
    assert (system.disk._sectors.keys()
            == reference.disk._sectors.keys())


def test_restore_preserves_monitored_statistics():
    system = build_system().boot()
    system.run(40_000)
    saved = system.machine.stats.snapshot()
    checkpoint = take(system)
    system.run_to_completion()
    restore(system, checkpoint)
    assert system.machine.stats.snapshot() == saved


def test_checkpoint_is_independent_of_later_execution():
    system = build_system().boot()
    system.run(30_000)
    checkpoint = take(system)
    memory_before = checkpoint.memory_bytes
    system.run_to_completion()  # mutates guest memory
    assert checkpoint.memory_bytes == memory_before
    restore(system, checkpoint)
    again = take(system)
    assert again.cores == checkpoint.cores
    assert again.frames == checkpoint.frames


def test_restore_across_mode_switches():
    from repro.vm import MODE_EVENT, NullSink
    system = build_system().boot()
    system.run(20_000)
    checkpoint = take(system)
    system.run(5_000, mode=MODE_EVENT, sink=NullSink())
    restore(system, checkpoint)
    system.run_to_completion()
    assert system.exit_code == 0


def test_checkpoint_captures_devices():
    system = boot(assemble("""
    _start:
        la t1, msg
        li t2, 3
        li t0, 1
        li t7, 1
        ecall
        halt
    msg:
        .ascii "abc"
    """))
    system.run_to_completion()
    checkpoint = take(system)
    assert checkpoint.console["output"] == b"abc"


def test_one_hart_guest_uses_the_per_hart_layout(tmp_path):
    from repro.exec.ckptstore import CheckpointStore, encode_manifest
    system = build_system().boot()
    system.run(20_000)
    machine = system.machine
    assert machine.cores == (machine,)

    checkpoint = take(system)
    assert len(checkpoint.cores) == 1
    assert checkpoint.cores[0]["cpu"] == machine.state.snapshot()

    manifest = encode_manifest(checkpoint)
    assert len(manifest["cores"]) == 1
    assert not {"cpu", "stats", "profile_counts", "pending_irqs",
                "fast_cache"} & set(manifest)

    CheckpointStore(tmp_path).publish_checkpoint("prog", "cfg", "aa",
                                                 checkpoint)
    loaded = CheckpointStore(tmp_path).load_checkpoint("prog", "cfg", "aa")
    assert loaded.cores == checkpoint.cores


def test_boot_gives_smp_harts_their_ids_and_stacks():
    from repro.isa.registers import GP, S3, SP
    program = assemble("halt")
    plain = boot(program).machine
    # the hart-id ABI is SMP-only: a plain guest's entry registers stay 0
    assert plain.state.regs[GP] == plain.state.regs[S3] == 0

    machine = boot(program, n_cores=3).machine
    harts = machine.cores
    assert [hart.state.regs[GP] for hart in harts] == [0, 1, 2]
    assert [hart.state.regs[S3] for hart in harts] == [3, 3, 3]
    assert all(hart.state.pc == program.entry for hart in harts)
    stacks = [hart.state.regs[SP] for hart in harts]
    assert len(set(stacks)) == 3
    assert stacks[0] == plain.state.regs[SP]
    assert all(hart.cores is harts for hart in harts)
