"""The translate-time gate at the translator/chain-linker seam.

Always on: every freshly generated source is symbolically proven before
``compile()``, counted as ``sanitizer.checked`` / ``sanitizer.rejected``
in the obs registry, and a source that fails its proof raises
``SanitizerError``.
"""

import pytest

from repro.analysis import sanitizer, symexec
from repro.isa import assemble
from repro.kernel import boot
from repro.obs import disable_metrics, enable_metrics, reset_metrics
from repro.vm import translator as translator_module

LOOP = """
_start:
    li s0, 0
    li s1, 50
loop:
    addi s0, s0, 1
    blt s0, s1, loop
    halt
"""


@pytest.fixture
def cold_cache():
    """A cold host code cache and fresh gate counters."""
    translator_module._CODE_CACHE.clear()
    registry = enable_metrics()
    reset_metrics()
    yield registry
    reset_metrics()
    disable_metrics()
    translator_module._CODE_CACHE.clear()


def counts(registry):
    collected = registry.collect()
    return (collected.get("sanitizer.checked", 0),
            collected.get("sanitizer.rejected", 0))


def test_live_run_deep_checks_every_translation(cold_cache):
    system = boot(assemble(LOOP))
    system.run_to_completion()
    checked, rejected = counts(cold_cache)
    assert checked >= 2  # the li block and the loop block
    assert rejected == 0


def test_hook_mirrors_obs_counters(cold_cache):
    system = boot(assemble(LOOP))
    system.run_to_completion()
    collected = cold_cache.collect()
    assert collected["sanitizer.checked"] >= 2
    assert "sanitizer.rejected" not in collected
    disable_metrics()  # off: the gate still runs, counting nothing
    translator_module._CODE_CACHE.clear()
    boot(assemble(LOOP)).run_to_completion()
    assert cold_cache.collect() == collected


def test_hook_raises_on_semantic_divergence(cold_cache):
    system = boot(assemble(LOOP))
    tr = system.machine.translator
    pc = system.machine.state.pc
    instrs = tr._decode_block(pc)
    source = tr._generate(pc, instrs, "fast")
    # off-by-one in the executed-instruction count, on the live path
    mutant = source.replace("return 4", "return 5", 1)
    assert mutant != source
    with pytest.raises(sanitizer.SanitizerError) as excinfo:
        sanitizer.sanitize_block_source(mutant, tr._env_base, "fast", pc,
                                        instrs)
    assert excinfo.value.reasons
    assert counts(cold_cache) == (1, 1)


def test_capture_seam_collects_without_checking(cold_cache, monkeypatch):
    """With the gate switched off, capture still records every source
    (no verdict attached) for the corpus driver to prove offline."""
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    with symexec.capture() as captured:
        system = boot(assemble(LOOP))
        system.run_to_completion()
    assert captured
    assert counts(cold_cache) == (0, 0)
    tiers = {item.tier for item in captured}
    assert "fast" in tiers
    for item in captured:
        assert item.diffs is None
        assert "SyscallTrap" in item.env_names
        assert item.verify() == []


def test_capture_keeps_the_gate_verdict(cold_cache):
    """With the gate on, every capture carries the gate's own diffs, so
    the corpus driver need not prove the source twice."""
    with symexec.capture() as captured:
        system = boot(assemble(LOOP))
        system.run_to_completion()
    assert captured
    assert len(captured) == counts(cold_cache)[0]
    assert all(item.diffs == () for item in captured)
