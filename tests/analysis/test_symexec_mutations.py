"""Mutation self-check: seeded codegen bugs the verifier must catch.

Each mutant takes a real generated source (a loop-form fast block with
symbolic registers, or an inline megablock from the timed and the
warming codegen) and seeds one bug on a live path — a dropped register
write, an off-by-one in the instruction accounting, a missing exit-stub
guard, a list mutator that wipes the register file.  The verifier
must flag every one with at least one diff; a mutant that verifies
clean would mean the proof has a blind spot.

Mutations must live on *live* paths: in straight-line blocks whose
registers are concrete after ``li``, branch conditions fold and the
untaken arm is dead code — a bug there is genuinely unreachable and
verifying it clean is correct, not a miss.
"""

import pytest

from repro.analysis.symexec import (verify_block_source,
                                    verify_inline_chain)
from repro.isa import assemble
from repro.kernel import boot
from repro.timing import OutOfOrderCore, TimingConfig
from repro.timing.codegen import TimedBlockCodegen, WarmingBlockCodegen
from repro.timing.warming import FunctionalWarmingSink

LOOP = """
_start:
    li s0, 0
    li s1, 2000
loop:
    addi s0, s0, 1
    addi s2, s2, 2
    blt s0, s1, loop
    halt
"""


@pytest.fixture(scope="module")
def loop_block():
    system = boot(assemble(LOOP))
    tr = system.machine.translator
    pc = system.machine.state.pc + 8  # the loop: block, past the li's
    instrs = tr._decode_block(pc)
    source = tr._generate(pc, instrs, "fast")
    return pc, instrs, source, frozenset(tr._env_base)


def mutate(source, old, new):
    assert old in source, f"mutation anchor {old!r} not in source"
    return source.replace(old, new, 1)


BLOCK_MUTANTS = {
    "dropped-register-write": ("r[11] = (r[11] + 2) & M",
                               "pass"),
    "wrong-register-value": ("r[11] = (r[11] + 2) & M",
                             "r[11] = (r[11] + 3) & M"),
    "icount-off-by-one": ("n += 3", "n += 2"),
    "wrong-exit-pc": ("state.pc = 4116", "state.pc = 4120"),
    "condition-flipped": ("if s64(r[9]) < s64(r[10]):",
                          "if s64(r[9]) >= s64(r[10]):"),
    "signedness-dropped": ("if s64(r[9]) < s64(r[10]):",
                           "if r[9] < r[10]:"),
    "budget-off-by-one": ("if n + 3 <= budget:", "if n + 3 < budget:"),
    # a list mutator aimed at the guest register file, not timing state
    "register-file-mutator": ("    r = state.regs\n",
                              "    r = state.regs\n    r.clear()\n"),
}


@pytest.mark.parametrize("name", sorted(BLOCK_MUTANTS))
def test_block_mutant_caught(loop_block, name):
    pc, instrs, source, env = loop_block
    old, new = BLOCK_MUTANTS[name]
    diffs = verify_block_source(mutate(source, old, new), pc, instrs,
                                "fast", env)
    assert diffs, f"verifier missed seeded bug {name}"


def test_pristine_block_still_clean(loop_block):
    pc, instrs, source, env = loop_block
    assert verify_block_source(source, pc, instrs, "fast", env) == []


#: a two-fragment looped chain: ``loop`` (LW/ADDI/SW/BLT) branches to
#: ``tail`` (ADDI/RDINSTR), which falls through back into ``loop``.  The
#: memory ops make the fault stub live, RDINSTR the icount bookkeeping,
#: the symbolic branch the successor guard, two fragments the ``_d``
#: dispatch counter.
CHAIN = """
_start:
    li s0, 4096
    li s1, 5000
    j loop
tail:
    addi s2, s2, 1
    rdinstr t1
loop:
    lw t0, 0(s0)
    addi t0, t0, 1
    sw t0, 0(s0)
    blt t0, s1, tail
    halt
"""


@pytest.fixture(scope="module")
def inline_chains():
    """``{shape: {codegen flavor: (frags, source, env)}}`` built by the
    translator's inline emitter; ``halt`` is a one-block HALT
    self-loop, the only shape where ``state.halted`` can be true."""
    system = boot(assemble(CHAIN))
    tr = system.machine.translator
    entry = system.machine.state.pc
    loop, tail, halt = entry + 20, entry + 12, entry + 36
    shapes = {"loop": [(loop, tr._decode_block(loop)),
                       (tail, tr._decode_block(tail))],
              "halt": [(halt, tr._decode_block(halt))]}
    assert [i.op.name for i in shapes["halt"][0][1]] == ["HALT"]
    codegens = {
        "timed": TimedBlockCodegen(OutOfOrderCore(TimingConfig.small())),
        "warm": WarmingBlockCodegen(
            FunctionalWarmingSink(OutOfOrderCore(TimingConfig.small()))),
    }
    # the chain linker adds VS, IRQ and GEN to a megablock's globals
    envs = {name: frozenset(tr._env_base.keys() | cg.env().keys()
                            | {"VS", "IRQ", "GEN"})
            for name, cg in codegens.items()}
    chains = {shape: {name: (frags, tr.generate_chain(frags, True, cg),
                             envs[name])
                      for name, cg in codegens.items()}
              for shape, frags in shapes.items()}
    return chains, {"loop": loop, "tail": tail}


#: class -> (chain shape, anchor, replacement); anchors name the first
#: exit stub (after ``loop``) and the first fragment's fault handler
CHAIN_MUTANTS = {
    "missing-halt-guard": ("halt", " or state.halted", ""),
    "missing-generation-guard": ("loop", " or _gen[0] != _g0", ""),
    "missing-irq-guard": ("loop", " or _irq", ""),
    "missing-successor-guard": ("loop", "state.pc != {tail} or ", ""),
    "budget-guard-flipped": ("loop", "_base >= _lim4", "_base > _lim4"),
    "icount-not-rewound": ("loop",
                           "    state.icount = state.icount - _base\n",
                           ""),
    "dispatch-count-off": ("loop", "VS.block_dispatches + _d - 1",
                           "VS.block_dispatches + _d"),
    "fault-pc-not-restored": ("loop",
                              "state.pc = {loop} + ((_n % 4) * 4)",
                              "pass"),
}


@pytest.mark.parametrize("name", sorted(CHAIN_MUTANTS))
def test_chain_mutant_caught(inline_chains, name):
    chains, pcs = inline_chains
    shape, old, new = CHAIN_MUTANTS[name]
    for flavor, (frags, source, env) in chains[shape].items():
        mutant = mutate(source, old.format(**pcs), new)
        diffs = verify_inline_chain(mutant, frags, True, env)
        assert diffs, f"verifier missed seeded bug {name} ({flavor})"


def test_pristine_chain_still_clean(inline_chains):
    chains, _ = inline_chains
    for by_flavor in chains.values():
        for frags, source, env in by_flavor.values():
            assert verify_inline_chain(source, frags, True, env) == []


def test_diff_carries_minimized_trace(loop_block):
    """A diff names the diverging field and points at source lines."""
    pc, instrs, source, env = loop_block
    old, new = BLOCK_MUTANTS["wrong-exit-pc"]
    diffs = verify_block_source(mutate(source, old, new), pc, instrs,
                                "fast", env)
    text = "\n".join(d.format() for d in diffs)
    assert "pc" in text
    assert "state.pc = 4120" in text  # the seeded line, in the trace
