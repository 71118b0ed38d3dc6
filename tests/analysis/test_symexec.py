"""Symbolic verification of real generated code, tier by tier.

Each test boots a small guest program, translates its blocks through
the production code generators, and asserts the symbolic verifier
proves every generated source equivalent to the decoded instruction
semantics — zero diffs, across every tier the VM can emit.
"""

import pytest

from repro.analysis.symexec import (verify_block_source,
                                    verify_inline_chain)
from repro.isa import assemble
from repro.kernel import boot
from repro.timing import OutOfOrderCore, TimingConfig
from repro.timing.codegen import TimedBlockCodegen, WarmingBlockCodegen
from repro.timing.warming import FunctionalWarmingSink
from repro.vm.translator import FLAVOR_EVENT

MASK64 = (1 << 64) - 1

#: the names the chain linker adds to a megablock's globals
LINKER_NAMES = frozenset({"VS", "IRQ", "GEN"})

PROGRAMS = {
    "alu": """
_start:
    li t0, 10
    li t1, 3
    add t2, t0, t1
    sub t3, t0, t1
    mul t4, t0, t1
    div t5, t0, t1
    rem t6, t0, t1
    halt
""",
    "memory": """
_start:
    li t0, 4096
    li t1, 77
    sb t1, 0(t0)
    sh t1, 2(t0)
    sw t1, 4(t0)
    sd t1, 8(t0)
    lb t2, 0(t0)
    lbu t3, 0(t0)
    lh t4, 2(t0)
    lhu t5, 2(t0)
    lw t6, 4(t0)
    halt
""",
    "fp": """
_start:
    la  t0, values
    fld f1, 0(t0)
    fld f2, 8(t0)
    fadd f3, f1, f2
    fdiv f6, f1, f2
    fsqrt f7, f2
    fcvtfi t4, f3
    fcvtif f12, t4
    fsd f3, 16(t0)
    j end
    .align 8
values:
    .double 6.0
    .double 4.0
    .double 0.0
end:
    halt
""",
    "branch": """
_start:
    li t0, 1
    li t1, 2
    beq t0, t1, over
    addi t2, t0, 5
over:
    halt
""",
    "jump": """
_start:
    call func
    j end
func:
    li t2, 99
    ret
end:
    halt
""",
    "counters": """
_start:
    rdcycle t0
    rdinstr t1
    addi t2, t1, 1
    rdinstr t3
    halt
""",
    "trap": """
_start:
    li t7, 0
    li t0, 0
    ecall
""",
    "loop": """
_start:
    li s0, 0
    li s1, 2000
loop:
    addi s0, s0, 1
    addi s2, s2, 2
    blt s0, s1, loop
    halt
""",
    "ldloop": """
_start:
    li s0, 4096
    li s1, 5000
loop:
    lw t0, 0(s0)
    addi t0, t0, 1
    sw t0, 0(s0)
    addi s2, s2, 1
    blt s2, s1, loop
    halt
""",
}


def block_starts(tr, entry):
    """Entry block plus fall-throughs and branch/jal targets."""
    seen = {}
    todo = [entry]
    while todo:
        pc = todo.pop()
        if pc in seen:
            continue
        try:
            instrs = tr._decode_block(pc)
        except Exception:
            continue
        seen[pc] = instrs
        last = instrs[-1]
        todo.append(pc + 4 * len(instrs))
        if last.op.name in ("BEQ", "BNE", "BLT", "BGE", "BLTU",
                            "BGEU", "JAL"):
            todo.append((pc + 4 * (len(instrs) - 1) + last.imm * 4)
                        & MASK64)
    return sorted(seen.items())


def _fail(tag, diffs, source):
    detail = "\n".join(d.format() for d in diffs[:3])
    pytest.fail(f"{tag}: {len(diffs)} diff(s)\n{detail}\n"
                f"---- source ----\n{source}")


@pytest.fixture(scope="module")
def translated():
    """(name, translator, blocks, codegens) for every program."""
    rows = []
    for name, src in PROGRAMS.items():
        system = boot(assemble(src))
        tr = system.machine.translator
        cg_t = TimedBlockCodegen(OutOfOrderCore(TimingConfig.small()))
        cg_w = WarmingBlockCodegen(
            FunctionalWarmingSink(OutOfOrderCore(TimingConfig.small())))
        rows.append((name, tr, block_starts(tr, system.machine.state.pc),
                     cg_t, cg_w))
    return rows


def test_fast_and_event_blocks_verify(translated):
    checked = 0
    for name, tr, blocks, _, _ in translated:
        for pc, instrs in blocks:
            for flavor in ("fast", "event"):
                source = tr._generate(pc, instrs, flavor)
                diffs = verify_block_source(source, pc, instrs, flavor,
                                            tr._env_base)
                if diffs:
                    _fail(f"{name}:{flavor}@{pc:#x}", diffs, source)
                checked += 1
    assert checked >= 2 * len(PROGRAMS)


def test_fused_timed_and_warm_blocks_verify(translated):
    checked = 0
    for name, tr, blocks, cg_t, cg_w in translated:
        for pc, instrs in blocks:
            for cg, flavor in ((cg_t, "timed"), (cg_w, "warm")):
                try:
                    source = tr._generate(pc, instrs, FLAVOR_EVENT, cg)
                except ValueError:
                    continue  # dynamic ring addressing: no fused form
                diffs = verify_block_source(
                    source, pc, instrs, flavor,
                    tr._env_base.keys() | cg.env().keys())
                if diffs:
                    _fail(f"{name}:fused-{flavor}@{pc:#x}", diffs,
                          source)
                checked += 1
    assert checked >= len(PROGRAMS)


def chain_env(tr, cg):
    """A megablock's globals: translator, codegen and chain linker."""
    return tr._env_base.keys() | cg.env().keys() | LINKER_NAMES


def _loop_blocks(blocks):
    for pc, instrs in blocks:
        last = instrs[-1]
        if (last.op.name in ("BEQ", "BNE", "BLT", "BGE", "BLTU", "BGEU")
                and pc + 4 * (len(instrs) - 1) + last.imm * 4 == pc):
            yield pc, instrs


def test_inline_chains_verify(translated):
    checked = 0
    for name, tr, blocks, cg_t, cg_w in translated:
        # single-fragment looping chains over every loop-form block
        for pc, instrs in _loop_blocks(blocks):
            for cg, flavor in ((cg_t, "timed"), (cg_w, "warm")):
                try:
                    source = tr.generate_chain([(pc, instrs)], True, cg)
                except ValueError:
                    continue
                diffs = verify_inline_chain(source, [(pc, instrs)],
                                            True, chain_env(tr, cg))
                if diffs:
                    _fail(f"{name}:chain1-{flavor}@{pc:#x}", diffs,
                          source)
                checked += 1
        # two-fragment chains, open and looped back
        if len(blocks) >= 2:
            frags = blocks[:2]
            for loop_back in (False, True):
                for cg, flavor in ((cg_t, "timed"), (cg_w, "warm")):
                    try:
                        source = tr.generate_chain(frags, loop_back, cg)
                    except ValueError:
                        continue
                    diffs = verify_inline_chain(source, frags,
                                                loop_back,
                                                chain_env(tr, cg))
                    if diffs:
                        _fail(f"{name}:chain2-{flavor} lb={loop_back}",
                              diffs, source)
                    checked += 1
    assert checked >= len(PROGRAMS)
