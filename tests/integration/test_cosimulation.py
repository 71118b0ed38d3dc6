"""Co-simulation: the interpreter and the binary translator must agree.

The two execution engines are implemented independently; these
property-based tests generate random guest programs and assert that
both engines retire the same instruction count and reach identical
architectural state.  This is the correctness anchor of the whole VM.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.isa import assemble
from repro.kernel import boot
from repro.vm import MODE_EVENT, MODE_FAST, MODE_INTERP, RecordingSink

_INT_OPS = ["add", "sub", "mul", "and", "or", "xor", "sll", "srl", "sra",
            "slt", "sltu", "div", "rem"]
_IMM_OPS = ["addi", "andi", "ori", "xori", "slti"]
_FP_OPS = ["fadd", "fsub", "fmul", "fdiv", "fmin", "fmax"]
_REGS = [f"t{i}" for i in range(6)]  # leave t6/t7 for infrastructure


@st.composite
def random_program(draw):
    """A random, always-terminating guest program."""
    lines = [
        "_start:",
        "    la s0, data",
        "    li t0, 3", "    li t1, -17", "    li t2, 0x7fffffff",
        "    li t3, 12345", "    li t4, -1", "    li t5, 8",
        "    fcvtif f1, t0", "    fcvtif f2, t1", "    fcvtif f3, t3",
    ]
    n_instructions = draw(st.integers(5, 60))
    label_counter = 0
    for _ in range(n_instructions):
        choice = draw(st.integers(0, 9))
        rd = draw(st.sampled_from(_REGS))
        rs1 = draw(st.sampled_from(_REGS))
        rs2 = draw(st.sampled_from(_REGS))
        if choice <= 4:
            op = draw(st.sampled_from(_INT_OPS))
            lines.append(f"    {op} {rd}, {rs1}, {rs2}")
        elif choice == 5:
            op = draw(st.sampled_from(_IMM_OPS))
            imm = draw(st.integers(-2048, 2047))
            lines.append(f"    {op} {rd}, {rs1}, {imm}")
        elif choice == 6:
            op = draw(st.sampled_from(_FP_OPS))
            fd, fa, fb = (draw(st.integers(1, 5)) for _ in range(3))
            lines.append(f"    {op} f{fd}, f{fa}, f{fb}")
        elif choice == 7:
            # aligned store+load within the data buffer
            offset = draw(st.integers(0, 31)) * 8
            lines.append(f"    sd {rs1}, {offset}(s0)")
            lines.append(f"    ld {rd}, {offset}(s0)")
        elif choice == 8:
            # forward branch over one instruction (always terminates)
            label = f"skip{label_counter}"
            label_counter += 1
            branch = draw(st.sampled_from(["beq", "bne", "blt", "bgeu"]))
            lines.append(f"    {branch} {rs1}, {rs2}, {label}")
            lines.append(f"    addi {rd}, {rd}, 1")
            lines.append(f"{label}:")
        else:
            # bounded counted loop
            label = f"loop{label_counter}"
            label_counter += 1
            count = draw(st.integers(1, 20))
            lines.append(f"    li t6, {count}")
            lines.append(f"{label}:")
            lines.append(f"    addi {rd}, {rd}, 1")
            lines.append("    addi t6, t6, -1")
            lines.append(f"    bne t6, zero, {label}")
    lines.append("    li t7, 0")
    lines.append("    li t0, 0")
    lines.append("    ecall")
    lines.append("    .align 8")
    lines.append("data:")
    lines.append("    .space 256")
    return "\n".join(lines)


def _run(source, mode, sink=None):
    system = boot(assemble(source))
    system.run_to_completion(mode=mode, sink=sink, limit=2_000_000)
    return system


def _fp_equal(a, b):
    return a == b or (a != a and b != b)  # NaN-tolerant


@settings(max_examples=60, deadline=None)
@given(random_program())
def test_translator_matches_interpreter(source):
    fast = _run(source, MODE_FAST)
    interp = _run(source, MODE_INTERP)
    assert fast.machine.state.regs == interp.machine.state.regs
    assert all(_fp_equal(a, b) for a, b in
               zip(fast.machine.state.fregs, interp.machine.state.fregs))
    assert fast.machine.state.icount == interp.machine.state.icount
    assert fast.machine.state.pc == interp.machine.state.pc


@settings(max_examples=25, deadline=None)
@given(random_program())
def test_event_mode_matches_interpreter_event_stream(source):
    sink_fast = RecordingSink()
    sink_interp = RecordingSink()
    event = _run(source, MODE_EVENT, sink_fast)
    interp = _run(source, MODE_INTERP, sink_interp)
    assert event.machine.state.regs == interp.machine.state.regs
    assert sink_fast.events == sink_interp.events


@settings(max_examples=25, deadline=None)
@given(random_program(), st.integers(1, 500))
def test_chunked_execution_matches_single_run(source, chunk):
    whole = _run(source, MODE_FAST)
    chunked = boot(assemble(source))
    while not chunked.machine.state.halted:
        chunked.run(chunk, mode=MODE_FAST)
    assert chunked.machine.state.regs == whole.machine.state.regs
    assert chunked.machine.state.icount == whole.machine.state.icount


@pytest.mark.parametrize("tlb_capacity", [2, 16, 256])
@pytest.mark.parametrize("cache_capacity", [2, 8, 512])
def test_resource_bounds_do_not_change_semantics(tlb_capacity,
                                                 cache_capacity):
    source = """
    _start:
        li t0, 0
        li t1, 4000
        la s0, data
    loop:
        addi t0, t0, 1
        sd t0, 0(s0)
        ld t2, 0(s0)
        blt t0, t1, loop
        mv t3, t2
        halt
        .align 8
    data:
        .space 64
    """
    system = boot(assemble(source), code_cache_capacity=cache_capacity,
                  tlb_capacity=tlb_capacity)
    system.run_to_completion()
    assert system.machine.state.regs[4] == 4000
