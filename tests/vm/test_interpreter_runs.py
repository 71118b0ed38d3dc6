"""Interpreter superblock dispatch (the slow-path oracle's fast loop).

``Interpreter.step_run`` dispatches straight-line decoded runs as a
unit.  Runs must share dispatch boundaries with the translator's
superblocks — that is what makes per-run bookkeeping
(``block_dispatches``) bit-identical between the interpreter oracle
(``REPRO_SLOW_PATH=1``) and the translated engines.
"""

import pytest

from repro.isa import assemble
from repro.kernel import boot
from repro.mem import PAGE_SHIFT
from repro.mem.faults import PageFault
from repro.vm.interpreter import Interpreter

STRAIGHT_LINE = "_start:\n" + \
    "\n".join(f"    addi t1, t1, {i}" for i in range(10)) + \
    "\n    halt"


def fresh(source):
    system = boot(assemble(source))
    return system.machine


def test_machine_interpreter_shares_translator_block_cap():
    machine = fresh(STRAIGHT_LINE)
    assert machine.interpreter.max_run == machine.translator.max_block


def test_run_boundaries_match_translator_blocks():
    machine = fresh("""
    _start:
        li s0, 0
        li s1, 10
    loop:
        addi s0, s0, 1
        addi t1, t1, 2
        blt s0, s1, loop
        halt
    """)
    interp = machine.interpreter
    pc = machine.state.pc
    # same decode boundaries as the translator's superblocks, block
    # by block along the program's control flow
    for _ in range(4):
        run = interp._decode_run(pc)
        block = machine.translator._decode_block(pc)
        assert len(run) == len(block)
        assert [i.op for i in run] == [i.op for i in block]
        executed = interp.step_run()
        assert executed == len(run)
        pc = machine.state.pc


def test_max_run_override_caps_dispatch():
    machine = fresh(STRAIGHT_LINE)
    interp = Interpreter(machine.state, machine.mmu, max_run=4)
    assert interp.step_run() == 4


def test_step_run_counts_icount_and_halts():
    machine = fresh(STRAIGHT_LINE)
    executed = machine.interpreter.step_run()
    assert executed == 11
    assert machine.state.icount == 11
    assert machine.state.halted


def test_notice_code_write_flushes_only_decoded_pages():
    machine = fresh(STRAIGHT_LINE)
    interp = machine.interpreter
    interp._decode_run(machine.state.pc)
    assert interp._runs or interp._decoded
    vpn = machine.state.pc >> PAGE_SHIFT
    gen = interp._gen
    interp.notice_code_write(vpn + 100)  # unrelated page: no flush
    assert interp._gen == gen
    interp.notice_code_write(vpn)  # decoded page: full flush
    assert interp._gen == gen + 1
    assert not interp._runs and not interp._decoded and not interp._pages


def test_fault_mid_run_reports_progress():
    machine = fresh("""
    _start:
        addi t1, zero, 1
        addi t2, zero, 2
        li t0, 0x70000000
        sd t1, 0(t0)
        addi t3, zero, 3
        halt
    """)
    interp = machine.interpreter
    before = machine.state.icount
    with pytest.raises(PageFault):
        interp.step_run()
    progress = interp.consume_progress()
    assert progress > 0  # the instructions before the faulting store
    assert machine.state.icount == before + progress
    assert interp.consume_progress() == 0  # one-shot
