"""Tests for the binary translator and translated-block semantics."""

import pytest

from repro.isa import assemble
from repro.kernel import boot
from repro.vm import MODE_EVENT, MODE_FAST, RecordingSink
from repro.isa.instructions import OpClass


def run_fragment(body, max_instructions=1_000_000, mode=MODE_FAST,
                 sink=None):
    """Boot a tiny program and run it to completion."""
    source = f"_start:\n{body}\n    li t7, 0\n    li t0, 0\n    ecall\n"
    system = boot(assemble(source))
    system.run_to_completion(mode=mode, sink=sink, limit=max_instructions)
    return system


def test_arithmetic_block():
    system = run_fragment("""
        li t0, 10
        li t1, 3
        add t2, t0, t1
        sub t3, t0, t1
        mul t4, t0, t1
        div t5, t0, t1
        rem t6, t0, t1
    """)
    regs = system.machine.state.regs
    assert regs[3] == 13
    assert regs[4] == 7
    assert regs[5] == 30
    assert regs[6] == 3
    assert regs[7] == 1


def test_unsigned_wraparound():
    system = run_fragment("""
        li t0, -1           ; 0xffff...ffff
        addi t1, t0, 1      ; wraps to 0
        li t2, -5
        sltu t3, t0, t2     ; unsigned: ffff... < fffb...? no
        slt  t4, t2, t0     ; signed: -5 < -1? yes
    """)
    regs = system.machine.state.regs
    assert regs[2] == 0
    assert regs[4] == 0
    assert regs[5] == 1


def test_shifts():
    system = run_fragment("""
        li t0, 1
        slli t1, t0, 63
        srli t2, t1, 63
        srai t3, t1, 63     ; arithmetic: sign fills
    """)
    regs = system.machine.state.regs
    assert regs[2] == 1 << 63
    assert regs[3] == 1
    assert regs[4] == (1 << 64) - 1


def test_division_corner_cases():
    system = run_fragment("""
        li t0, 7
        li t1, 0
        div t2, t0, t1      ; div by zero -> all ones
        rem t3, t0, t1      ; rem by zero -> dividend
        li t4, 1
        slli t4, t4, 63     ; INT64_MIN
        li t5, -1
        div t6, t4, t5      ; overflow -> INT64_MIN
    """)
    regs = system.machine.state.regs
    assert regs[3] == (1 << 64) - 1
    assert regs[4] == 7
    assert regs[7] == 1 << 63


def test_memory_roundtrip():
    system = run_fragment("""
        la  t0, buffer
        li  t1, 0x1122334455667788
        sd  t1, 0(t0)
        ld  t2, 0(t0)
        lw  t3, 0(t0)       ; sign-extended low word
        lwu t4, 0(t0)
        lb  t5, 7(t0)       ; 0x11
        j   end
        .align 8
    buffer:
        .quad 0
    end:
    """)
    regs = system.machine.state.regs
    assert regs[3] == 0x1122334455667788
    assert regs[4] == 0x55667788
    assert regs[5] == 0x55667788
    assert regs[6] == 0x11


def test_signed_load_extension():
    system = run_fragment("""
        la  t0, data
        lb  t1, 0(t0)
        lbu t2, 0(t0)
        lh  t3, 0(t0)
        lhu t4, 0(t0)
        j end
        .align 8
    data:
        .quad 0xffffffffffffffff
    end:
    """)
    regs = system.machine.state.regs
    assert regs[2] == (1 << 64) - 1  # lb sign-extends
    assert regs[3] == 0xFF
    assert regs[4] == (1 << 64) - 1
    assert regs[5] == 0xFFFF


def test_fp_arithmetic():
    system = run_fragment("""
        la  t0, values
        fld f1, 0(t0)
        fld f2, 8(t0)
        fadd f3, f1, f2
        fmul f4, f1, f2
        fdiv f5, f1, f2
        fsqrt f6, f2
        flt t1, f2, f1
        fcvtfi t2, f3
        j end
        .align 8
    values:
        .double 6.0
        .double 4.0
    end:
    """)
    state = system.machine.state
    assert state.fregs[3] == pytest.approx(10.0)
    assert state.fregs[4] == pytest.approx(24.0)
    assert state.fregs[5] == pytest.approx(1.5)
    assert state.fregs[6] == pytest.approx(2.0)
    assert state.regs[2] == 1
    assert state.regs[3] == 10


def test_fcvtif():
    system = run_fragment("""
        li t0, -7
        fcvtif f1, t0
        fneg f2, f1
        fcvtfi t1, f2
    """)
    state = system.machine.state
    assert state.fregs[1] == -7.0
    assert state.regs[2] == 7


def test_loop_chaining_runs_whole_loop_in_one_dispatch():
    system = run_fragment("""
        li t0, 0
        li t1, 50000
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        mv t2, t0
    """)
    assert system.machine.state.regs[3] == 50000
    # The loop body must not have been dispatched 50000 times.
    assert system.machine.stats.block_dispatches < 100


def test_budget_respected_by_loop_blocks():
    source = """
    _start:
        li t0, 0
        li t1, 1000000
    loop:
        addi t0, t0, 1
        blt t0, t1, loop
        halt
    """
    system = boot(assemble(source))
    executed = system.run(1000, mode=MODE_FAST)
    # Bounded overshoot: at most one block length beyond the budget.
    assert 1000 <= executed <= 1000 + 32
    assert not system.machine.state.halted


def test_jal_jalr_link():
    system = run_fragment("""
        call func
        j end
    func:
        li t2, 99
        ret
    end:
        nop
    """)
    assert system.machine.state.regs[3] == 99


def test_zero_register_immutable():
    system = run_fragment("""
        li t0, 5
        add zero, t0, t0
        addi zero, zero, 9
        mv t1, zero
    """)
    assert system.machine.state.regs[0] == 0
    assert system.machine.state.regs[2] == 0


def test_rdinstr_counts_retired_instructions():
    system = run_fragment("""
        nop
        nop
        rdinstr t6
    """)
    # the two nops retire before rdinstr reads the counter
    assert system.machine.state.regs[7] == 2


def test_event_mode_matches_fast_mode_architecturally():
    body = """
        li t0, 0
        li t1, 3000
    loop:
        addi t0, t0, 1
        and  t2, t0, t1
        blt t0, t1, loop
    """
    fast = run_fragment(body, mode=MODE_FAST)
    sink = RecordingSink(limit=10)
    event = run_fragment(body, mode=MODE_EVENT, sink=sink)
    assert fast.machine.state.regs == event.machine.state.regs
    assert fast.machine.state.icount == event.machine.state.icount
    assert len(sink.events) == 10  # events were produced


def test_event_stream_contents():
    source = """
    _start:
        li t0, 7
        la t1, buf
        sd t0, 0(t1)
        beq t0, t0, skip
        nop
    skip:
        halt
        .align 8
    buf:
        .quad 0
    """
    system = boot(assemble(source))
    sink = RecordingSink()
    system.run_to_completion(mode=MODE_EVENT, sink=sink)
    classes = [event[1] for event in sink.events]
    # li(1) la(2) sd(1) beq(1) halt(1) = 6 events
    assert len(classes) == 6
    store = sink.events[3]
    assert store[1] == int(OpClass.STORE)
    assert store[5] > 0  # effective address reported
    branch = sink.events[4]
    assert branch[1] == int(OpClass.BRANCH)
    assert branch[6] == 1  # taken
    # target == the halt instruction address
    assert branch[7] == sink.events[5][0]


def test_generated_source_is_stashed():
    system = run_fragment("nop")
    assert "def _block" in system.machine.translator.last_source
