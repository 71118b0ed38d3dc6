"""Machine-level behaviour: modes, faults, statistics, SMC."""

import pytest

from repro.isa import assemble
from repro.kernel import boot
from repro.mem import PAGE_SIZE
from repro.vm import (MODE_EVENT, MODE_FAST, MODE_INTERP, MODE_PROFILE,
                      Machine, MachineError, NullSink, RecordingSink)


def test_unknown_mode_rejected():
    system = boot(assemble("halt"))
    with pytest.raises(ValueError):
        system.run(10, mode="warp")


def test_event_mode_requires_sink():
    system = boot(assemble("halt"))
    with pytest.raises(ValueError):
        system.run(10, mode=MODE_EVENT)


def test_zero_budget_is_noop():
    system = boot(assemble("halt"))
    assert system.run(0) == 0


def test_ecall_without_kernel_raises():
    machine = Machine()
    from repro.mem import PROT_RWX
    machine.page_table.map(1, machine.phys.alloc_frame(), PROT_RWX)
    program = assemble("ecall")
    machine.mmu.write_block(0x1000, bytes(program.segments[0].data))
    machine.state.reset(pc=0x1000)
    with pytest.raises(MachineError):
        machine.run(10)


def test_demand_paged_heap_faults_then_maps():
    source = """
    _start:
        li t7, 3        ; SYS_BRK
        li t0, 0
        ecall           ; query brk
        mv t1, t0
        addi t0, t0, 0x4000
        li t7, 3
        ecall           ; grow heap by 4 pages
        ; touch two new pages -> two demand faults
        sd t1, 0(t1)
        li t2, 0x2000
        add t3, t1, t2
        sd t3, 0(t3)
        li t7, 0
        li t0, 0
        ecall
    """
    system = boot(assemble(source))
    system.run_to_completion()
    kinds = system.machine.stats.exception_kinds
    assert kinds.get("page_fault", 0) == 2
    assert kinds.get("syscall", 0) == 3


def test_stack_demand_paging():
    source = """
    _start:
        sd sp, -8(sp)      ; first touch of the stack page
        li t7, 0
        li t0, 0
        ecall
    """
    system = boot(assemble(source))
    system.run_to_completion()
    assert system.machine.stats.exception_kinds.get("page_fault", 0) == 1


def test_unmapped_access_crashes():
    source = """
    _start:
        li t0, 0x10000000
        ld t1, 0(t0)
        halt
    """
    system = boot(assemble(source))
    with pytest.raises(MachineError):
        system.run_to_completion()
    # the fault was still counted as a guest exception
    assert system.machine.stats.exception_kinds.get("page_fault", 0) == 1


def test_misaligned_access_crashes():
    source = """
    _start:
        la t0, word
        ld t1, 1(t0)
        halt
        .align 8
    word:
        .quad 1
    """
    system = boot(assemble(source))
    with pytest.raises(MachineError):
        system.run_to_completion()


def test_self_modifying_code_invalidates_and_reexecutes():
    # The program overwrites the instruction at `patch` (li t2, 1 ->
    # encoded word for li t2, 2) and re-executes it.
    patched = assemble("ldi t2, 2").segments[0].data[:4]
    word = int.from_bytes(patched, "little")
    source = f"""
    _start:
        jal ra, run_patch      ; execute original
        mv t3, t2              ; t3 = 1
        la t0, patch
        li t1, {word}
        sw t1, 0(t0)           ; overwrite the instruction
        jal ra, run_patch      ; execute patched
        mv t4, t2              ; t4 = 2
        li t7, 0
        li t0, 0
        ecall
    run_patch:
    patch:
        ldi t2, 1
        ret
    """
    system = boot(assemble(source))
    system.run_to_completion()
    regs = system.machine.state.regs
    assert regs[4] == 1
    assert regs[5] == 2
    assert system.machine.stats.code_cache_invalidations > 0


def test_code_cache_capacity_evictions_counted():
    # More blocks than cache capacity -> FIFO evictions.
    chunks = []
    for i in range(40):
        chunks.append(f"b{i}:\n    addi t0, t0, 1\n    jal zero, b{i + 1}")
    chunks.append("b40:\n    halt")
    source = "_start:\n" + "\n".join(chunks)
    system = boot(assemble(source), code_cache_capacity=8)
    system.run_to_completion()
    stats = system.machine.stats
    assert stats.translations >= 40
    assert stats.code_cache_invalidations >= 30


def test_profile_mode_collects_block_counts():
    source = """
    _start:
        li t0, 0
        li t1, 500
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    """
    system = boot(assemble(source))
    system.run_to_completion(mode=MODE_PROFILE)
    counts = system.machine.profile_counts
    assert sum(counts.values()) == system.machine.state.icount
    # the loop block dominates
    assert max(counts.values()) >= 2 * 500 - 10


def test_profile_and_fast_mode_agree():
    source = """
    _start:
        li t0, 0
        li t1, 2000
    loop:
        addi t0, t0, 3
        blt t0, t1, loop
        halt
    """
    fast = boot(assemble(source))
    fast.run_to_completion(mode=MODE_FAST)
    prof = boot(assemble(source))
    prof.run_to_completion(mode=MODE_PROFILE)
    assert fast.machine.state.regs == prof.machine.state.regs
    assert fast.machine.state.icount == prof.machine.state.icount


def test_per_mode_instruction_accounting():
    source = """
    _start:
        li t0, 0
        li t1, 100000
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    """
    system = boot(assemble(source))
    system.run(1000, mode=MODE_FAST)
    system.run(1000, mode=MODE_EVENT, sink=NullSink())
    system.run(1000, mode=MODE_PROFILE)
    stats = system.machine.stats
    assert stats.instructions_fast >= 1000
    assert stats.instructions_event >= 1000
    assert stats.instructions_profile >= 1000
    assert stats.instructions_total == system.machine.state.icount


def test_mode_switching_preserves_architectural_state():
    source = """
    _start:
        li t0, 0
        li t1, 30000
    loop:
        addi t0, t0, 1
        and  t2, t0, t1
        blt t0, t1, loop
        mv t3, t0
        halt
    """
    reference = boot(assemble(source))
    reference.run_to_completion()

    switching = boot(assemble(source))
    sink = NullSink()
    mode_cycle = [MODE_FAST, MODE_EVENT, MODE_PROFILE]
    index = 0
    while not switching.machine.state.halted:
        mode = mode_cycle[index % 3]
        switching.run(777, mode=mode,
                      sink=sink if mode == MODE_EVENT else None)
        index += 1
    assert (switching.machine.state.regs
            == reference.machine.state.regs)
    assert (switching.machine.state.icount
            == reference.machine.state.icount)


def test_interrupt_delivery():
    source = """
    _start:
        li t0, 0
        li t1, 100000
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    """
    system = boot(assemble(source))
    system.run(100)
    system.machine.post_interrupt(1)
    system.run(100)
    assert system.kernel.timer_fired == 1
    assert system.machine.stats.exception_kinds.get("interrupt") == 1


def test_interp_mode_matches_the_slow_path_oracle():
    source = """
    _start:
        li t0, 0
        li t1, 100000
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    """
    runs = []
    for mode in (MODE_INTERP, MODE_EVENT):
        system = boot(assemble(source))
        system.machine.fast_path = False  # event mode: the oracle
        sink = RecordingSink()
        system.run(100, mode=mode, sink=sink)
        system.machine.post_interrupt(1)
        system.run(100, mode=mode, sink=sink)
        assert system.kernel.timer_fired == 1
        stats = system.machine.stats.snapshot()
        retired = (stats.pop("instructions_interp")
                   + stats.pop("instructions_event"))
        runs.append((system.machine.state.snapshot(), sink.events, stats,
                     retired))
    assert runs[0] == runs[1]


def test_snapshot_restore_state():
    system = boot(assemble("li t0, 7\nhalt"))
    system.run_to_completion()
    snap = system.machine.state.snapshot()
    system.machine.state.reset()
    assert system.machine.state.regs[1] == 0
    system.machine.state.restore(snap)
    assert system.machine.state.regs[1] == 7
    assert system.machine.state.halted


def test_exception_counter_is_the_exc_signal():
    source = """
    _start:
        li t7, 9      ; SYS_YIELD
        ecall
        ecall
        ecall
        li t7, 0
        li t0, 0
        ecall
    """
    system = boot(assemble(source))
    system.run_to_completion()
    stats = system.machine.stats
    assert stats.monitored("EXC") == stats.exceptions == 4


def test_monitored_statistics_names():
    system = boot(assemble("halt"))
    stats = system.machine.stats
    assert stats.monitored("CPU") == stats.code_cache_invalidations
    assert stats.monitored("IO") == stats.io_operations
    with pytest.raises(KeyError):
        stats.monitored("BOGUS")


def test_flush_policy_evicts_everything_at_capacity():
    chunks = []
    for i in range(30):
        chunks.append(f"b{i}:\n    addi t0, t0, 1\n    jal zero, b{i + 1}")
    chunks.append("b30:\n    halt")
    source = "_start:\n" + "\n".join(chunks)
    fifo = boot(assemble(source), code_cache_capacity=8)
    fifo.run_to_completion()
    flush = boot(assemble(source), code_cache_capacity=8,
                 code_cache_policy="flush")
    flush.run_to_completion()
    # same architectural outcome...
    assert (flush.machine.state.regs[1]
            == fifo.machine.state.regs[1])
    # ...but the flush policy drops blocks in bursts
    assert flush.machine.fast_cache.flushes == 0  # capacity, not flush()
    assert flush.machine.stats.code_cache_invalidations \
        >= fifo.machine.stats.code_cache_invalidations


def test_unknown_cache_policy_rejected():
    from repro.vm import CodeCache
    with pytest.raises(ValueError):
        CodeCache(8, policy="lru")
