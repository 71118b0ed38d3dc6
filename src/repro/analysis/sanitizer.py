"""The translate-time gate every generated block passes before compile().

The translator emits Python source for every guest basic block and
megablock and compiles it — the one sanctioned JIT in the tree (rule
REPRO004).  :func:`sanitize_block_source` first hands each fresh source
to the symbolic verifier (:mod:`.symexec`), which parses it once and
both proves it equivalent to the ISA semantics of the block or chain it
came from and enforces the safety rules of generated code, unreached
statements included.  It runs once per *unique* source (the host code
cache skips it on hits) and is on unless ``REPRO_SANITIZE=0``; vetting
never alters the source, so results are identical either way.  It
counts ``sanitizer.checked`` / ``sanitizer.rejected`` in the obs
registry.
"""

from __future__ import annotations

import os
from dataclasses import replace
from typing import Collection, List, Sequence, Tuple

from repro.isa import Instr

__all__ = ["SanitizerError", "sanitize_block_source",
           "sanitizer_enabled"]


class SanitizerError(ValueError):
    """A generated source failed its translate-time check."""

    def __init__(self, reasons: List[str], source: str) -> None:
        self.reasons = list(reasons)
        self.source = source
        preview = "\n".join(source.splitlines()[:8])
        super().__init__(
            "generated code rejected at translate time:\n  - "
            + "\n  - ".join(self.reasons)
            + f"\nsource head:\n{preview}")


def sanitizer_enabled() -> bool:
    """On unless ``REPRO_SANITIZE=0``."""
    return os.environ.get("REPRO_SANITIZE", "1").strip().lower() \
        not in ("0", "false", "no", "off")


def sanitize_block_source(
        source: str, env_names: Collection[str], flavor: str = "fast",
        pc0: int = 0, instrs: Sequence[Instr] = (),
        frags: Sequence[Tuple[int, Sequence[Instr]]] = (),
        loop_back: bool = False) -> None:
    """Check one generated source; raise :class:`SanitizerError`.

    ``env_names`` is the set of globals the translator will ``exec``
    the compiled code against (semantic helpers, memory accessors,
    trap types, and — for fused flavours and megablocks — the codegen
    and chain-linker environment).  ``flavor`` is the block flavour
    (``fast``/``event``/``timed``/``warm``) of the block at ``pc0``
    decoding to ``instrs``, or ``"mega"`` for the megablock over
    ``frags`` (``loop_back``: the chain closes into a loop).
    """
    from . import symexec  # lazy: importing repro.analysis stays light
    item = symexec.Captured(
        flavor=flavor, source=source, pc0=pc0,
        env_names=frozenset(env_names), instrs=tuple(instrs),
        frags=tuple((pc, tuple(body)) for pc, body in frags),
        loop_back=loop_back)
    if not sanitizer_enabled():
        symexec.record(item)
        return
    diffs = item.verify()
    symexec.record(replace(item, diffs=tuple(diffs)))
    from repro.obs import get_registry  # lazy: keep import cost off
    registry = get_registry()           # the non-instrumented path
    registry.counter("sanitizer.checked").inc()
    if diffs:
        registry.counter("sanitizer.rejected").inc()
        raise SanitizerError([diff.format() for diff in diffs], source)
