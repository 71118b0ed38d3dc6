"""The translate-time gate: real generated sources pass; unsafe shapes
are rejected wherever they sit — on a live path, in an arm the symbolic
proof never reaches, in a handler no path enters, or after a
``return``."""

import re
import textwrap
from dataclasses import dataclass

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError, sanitize_block_source
from repro.isa import assemble
from repro.kernel import boot
from repro.obs import disable_metrics, enable_metrics, reset_metrics
from repro.timing import OutOfOrderCore, TimingConfig
from repro.timing.codegen import TimedBlockCodegen, WarmingBlockCodegen
from repro.timing.warming import FunctionalWarmingSink
from repro.vm.translator import FLAVOR_EVENT

#: a load/add/store block ending in a jump, then an ECALL block
PROGRAM = """
_start:
    li t0, 4096
    ld t1, 0(t0)
    addi t1, t1, 1
    sd t1, 0(t0)
    j next
next:
    li t7, 0
    li t0, 0
    ecall
"""


@dataclass(frozen=True)
class Block:
    """One generated source with everything the gate proves it by."""

    source: str
    env: frozenset
    flavor: str
    pc: int
    instrs: tuple


@pytest.fixture(scope="module")
def blocks():
    system = boot(assemble(PROGRAM))
    tr = system.machine.translator
    env = frozenset(tr._env_base)
    pc = system.machine.state.pc
    instrs = tuple(tr._decode_block(pc))
    ecall_pc = pc + 4 * len(instrs)
    ecall = tuple(tr._decode_block(ecall_pc))
    timed = TimedBlockCodegen(OutOfOrderCore(TimingConfig.small()))
    warm = WarmingBlockCodegen(
        FunctionalWarmingSink(OutOfOrderCore(TimingConfig.small())))
    return {
        "fast": Block(tr._generate(pc, instrs, "fast"), env, "fast", pc,
                      instrs),
        "timed": Block(tr._generate(pc, instrs, FLAVOR_EVENT, timed),
                       env | set(timed.env()), "timed", pc, instrs),
        "warm-ecall": Block(tr._generate(ecall_pc, ecall, FLAVOR_EVENT,
                                         warm),
                            env | set(warm.env()), "warm", ecall_pc,
                            ecall),
    }


def check(block, source=None):
    sanitize_block_source(source or block.source, block.env, block.flavor,
                          block.pc, block.instrs)


@pytest.fixture
def counts():
    """``() -> (checked, rejected)`` over fresh gate counters."""
    registry = enable_metrics()
    reset_metrics()

    def read():
        collected = registry.collect()
        return (collected.get("sanitizer.checked", 0),
                collected.get("sanitizer.rejected", 0))
    yield read
    reset_metrics()
    disable_metrics()


def reasons_of(block, source):
    with pytest.raises(SanitizerError) as excinfo:
        check(block, source)
    return "\n".join(excinfo.value.reasons)


# ----------------------------------------------------------------------
# where a statement is placed in a real fast-block source

_PROLOGUE = "    f = state.fregs\n"


def live(source, snippet):
    """Right after the prologue: every path runs it."""
    assert _PROLOGUE in source
    return source.replace(
        _PROLOGUE, _PROLOGUE + textwrap.indent(snippet, "    ") + "\n", 1)


def unreached_arm(source, snippet):
    """In an ``if 0:`` arm no path takes."""
    return live(source, "if 0:\n" + textwrap.indent(snippet, "    "))


def unentered_handler(source, snippet):
    """In an ``except`` handler no path enters."""
    return live(source, "try:\n    x = r[1]\nexcept GuestFault:\n"
                + textwrap.indent(snippet, "    "))


def after_return(source, snippet):
    assert source.rstrip().splitlines()[-1].startswith("    return ")
    return source.rstrip() + "\n" + textwrap.indent(snippet, "    ") + "\n"


#: shape -> (statement, a pattern the rejection reason matches)
SHAPES = {
    "import": ("import os", "Import"),
    "open-call": ('handle = open("/etc/passwd")', "open"),
    "foreign-attribute-write": ("budget.limit.inner = 0",
                                "attribute write"),
    "unknown-name-read": ("x = secret_global + 1", "unknown name"),
    "helper-argument-read": ("x = ld8(4096, secret_global)",
                             "unknown name"),
    "dunder-access": ("x = state.__dict__", "dunder"),
    "nested-def": ("def inner():\n    return 0", "FunctionDef"),
    "lambda": ("g = lambda: 0", "Lambda"),
    "foreign-raise": ('raise ValueError("nope")', "raise"),
    "non-name-except-type": (
        "try:\n    pass\nexcept (GuestFault, state.kind):\n    pass",
        "except clause"),
    "register-file-mutator": ("r.clear()", "list mutator"),
    "state-mutator": ("s = state\ns.clear()", "list mutator"),
    "bound-mutator-call": ("c = r.clear\nc()", "not the event sink"),
    # live, the pick itself is refused; unreached, the mutator on it
    "aliased-register-file": ("w = (r, r)[r[1] & 1]\nw.clear()",
                              "symbolic choice|list mutator"),
}


def rejects_live(blocks, shape):
    snippet, phrase = SHAPES[shape]
    fast = blocks["fast"]
    assert re.search(phrase, reasons_of(fast, live(fast.source, snippet)))


# ----------------------------------------------------------------------
# accepted: real generated sources


def test_accepts_representative_block(blocks):
    fast = blocks["fast"]
    assert "ld8(" in fast.source and "st8(" in fast.source
    check(fast)


def test_accepts_trap_raise_and_env_except(blocks):
    block = blocks["warm-ecall"]
    assert "raise SyscallTrap(" in block.source
    assert "except GuestFault as" in block.source
    check(block)


def test_accepts_local_list_mutators(blocks):
    block = blocks["timed"]
    for line in ("_w = ITLBW[0]", "_w = L1IW[0]", "_w.remove(",
                 "_w.insert(0,", "_w.pop()"):
        assert line in block.source
    check(block)


# ----------------------------------------------------------------------
# rejected shapes, on a live path


def test_rejects_import(blocks):
    rejects_live(blocks, "import")


def test_rejects_open_call(blocks):
    rejects_live(blocks, "open-call")


def test_rejects_foreign_attribute_write(blocks):
    rejects_live(blocks, "foreign-attribute-write")


def test_rejects_unknown_name_read(blocks):
    rejects_live(blocks, "unknown-name-read")


def test_rejects_dunder_access(blocks):
    rejects_live(blocks, "dunder-access")


def test_rejects_wrong_module_shape(blocks):
    fast = blocks["fast"]
    assert "exactly one" in reasons_of(fast, "x = 1\n")
    assert "exactly one" in reasons_of(
        fast, fast.source + "\ndef _other():\n    return 1\n")
    head = "def _block(state, budget):"
    for bad in ("def _block(state, budget, extra):",
                "def _block(state, budget=0):",
                "def _block(state, budget, *rest):",
                "def _block(state, budget, *, key):",
                "def _block(state, budget) -> open('x'):",
                "@abs\ndef _block(state, budget):"):
        assert "signature" in reasons_of(fast,
                                         fast.source.replace(head, bad))


def test_rejects_nested_def_and_lambda(blocks):
    rejects_live(blocks, "nested-def")
    rejects_live(blocks, "lambda")


def test_rejects_foreign_raise(blocks):
    rejects_live(blocks, "foreign-raise")


def test_rejects_non_name_except_type(blocks):
    rejects_live(blocks, "non-name-except-type")


def test_rejects_register_file_mutator(blocks):
    for shape in ("register-file-mutator", "state-mutator",
                  "bound-mutator-call", "aliased-register-file"):
        rejects_live(blocks, shape)
    fast = blocks["fast"]
    # an alias only one arm of a fork makes survives the merge
    assert "list mutator" in reasons_of(fast, live(
        fast.source, "if r[1]:\n    w = r\nelse:\n    w = (r[1], 0)\n"
        "w.clear()"))
    # a value read off the register file is not timing state
    assert "list mutator" in reasons_of(
        fast, live(fast.source, "w = r.copy\nw.clear()"))
    # a run-time pick of a machine object would alias it unseen
    for pick in ("w = r if r[1] else f", "w = r[1] and r"):
        assert "symbolic choice" in reasons_of(
            fast, live(fast.source, pick + "\nw[1] = 0"))


def test_rejects_syntax_error(blocks):
    assert "not parseable" in reasons_of(blocks["fast"],
                                         "def _block(state budget:\n")


# ----------------------------------------------------------------------
# rejected shapes, where no symbolic path goes


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rejects_every_shape_in_an_unreached_arm(blocks, shape):
    snippet, phrase = SHAPES[shape]
    fast = blocks["fast"]
    check(fast, unreached_arm(fast.source, "x = r[1]"))
    assert re.search(phrase,
                     reasons_of(fast, unreached_arm(fast.source, snippet)))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rejects_every_shape_in_an_unentered_handler(blocks, shape):
    snippet, phrase = SHAPES[shape]
    fast = blocks["fast"]
    check(fast, unentered_handler(fast.source, "x = r[1]"))
    assert re.search(phrase, reasons_of(
        fast, unentered_handler(fast.source, snippet)))


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_rejects_every_shape_after_return(blocks, shape):
    snippet, phrase = SHAPES[shape]
    fast = blocks["fast"]
    check(fast, after_return(fast.source, "x = r[1]"))
    assert re.search(phrase,
                     reasons_of(fast, after_return(fast.source, snippet)))


# ----------------------------------------------------------------------
# counters + kill switch


def test_stats_count_checks_and_rejections(blocks, counts):
    fast = blocks["fast"]
    check(fast)
    with pytest.raises(SanitizerError):
        check(fast, "import os\n")
    assert counts() == (2, 1)


def test_enabled_env_switch(monkeypatch, blocks, counts):
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    assert sanitizer.sanitizer_enabled()
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    assert not sanitizer.sanitizer_enabled()
    check(blocks["fast"], "import os\n")   # the escape hatch: unchecked
    assert counts() == (0, 0)
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert sanitizer.sanitizer_enabled()


# ----------------------------------------------------------------------
# live coverage: every block a real run compiles must pass


def test_every_superblock_of_a_real_run_passes(monkeypatch, counts):
    """Boot a guest workload, run it through the fused fast path, and
    require the gate to have vetted every freshly generated superblock
    with zero rejections."""
    from repro.vm import translator as translator_module
    from repro.workloads import load_benchmark

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setattr(translator_module, "_CODE_CACHE", {})
    system = load_benchmark("gzip", size="tiny").boot()
    system.run_to_completion()
    checked, rejected = counts()
    assert rejected == 0
    assert checked > 10  # the run really generated blocks
