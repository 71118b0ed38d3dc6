"""Generated-superblock sanitizer: AST verification before compile().

The translator (:mod:`repro.vm.translator`) and the fused codegens
(:mod:`repro.timing.codegen`) emit Python source for every guest basic
block and hand it to ``compile()``/``exec()`` — the one sanctioned JIT
in the tree (rule REPRO004).  The equivalence contract between the
fused fast path and its slow-path oracles only holds if that generated
code touches nothing but guest/machine/timing state; a codegen bug that
reached for an import, a file, or a foreign object would be invisible
to the differential tests unless they happened to execute the broken
block.

This module closes that gap at runtime: before a block source is
compiled, :func:`sanitize_block_source` parses it and walks the AST
against a whitelist —

* module shape: exactly one ``def _block(state, budget)``;
* no imports, ``global``/``nonlocal``, nested defs/lambdas/classes,
  comprehensions, ``with``, ``del``, ``await``/``yield``, or walrus;
* every name read resolves to a block local, the translator/codegen
  environment, or a tiny builtin set (``abs``/``float``/``int``/
  ``len``); no dunder attribute access anywhere;
* attribute and subscript writes only land on the machine/timing state
  roots the environment provides (``state``, ``CORE``, ``WS``, the
  predictor/cache objects, ...) or on block locals;
* calls only target environment helpers, the builtin whitelist, block
  locals (the event sink), or list mutators on locals;
* ``raise`` only constructs environment trap types or re-raises a
  local.

The check runs once per *unique* block (the translator's host code
cache skips it on hits) and is on by default; ``REPRO_SANITIZE=0``
disables it (escape hatch for perf experiments).  Accept/reject
counters are kept module-locally (:func:`stats`) and mirrored into the
:mod:`repro.obs` metrics registry as ``sanitizer.checked`` /
``sanitizer.rejected``.
"""

from __future__ import annotations

import ast
import os
from typing import Collection, FrozenSet, List, Set

__all__ = ["SanitizerError", "sanitize_block_source",
           "sanitizer_enabled", "stats", "reset_stats",
           "mirror_check_metrics"]

#: builtins generated code may call (value producers only, no I/O)
ALLOWED_BUILTINS: FrozenSet[str] = frozenset(
    {"abs", "float", "int", "len"})

#: mutating list/deque methods allowed on block locals (LRU ways)
LIST_MUTATORS: FrozenSet[str] = frozenset(
    {"insert", "remove", "pop", "append", "clear"})

#: statement/expression node types generated code never contains;
#: their presence means the codegen (or an injected source) went rogue
FORBIDDEN_NODES = (
    ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.ClassDef,
    ast.AsyncFunctionDef, ast.AsyncFor, ast.AsyncWith, ast.With,
    ast.Delete, ast.Lambda, ast.Await, ast.Yield, ast.YieldFrom,
    ast.NamedExpr, ast.ListComp, ast.SetComp, ast.DictComp,
    ast.GeneratorExp, ast.Starred, ast.JoinedStr,
)


class SanitizerError(ValueError):
    """A generated block source violated the whitelist."""

    def __init__(self, reasons: List[str], source: str) -> None:
        self.reasons = list(reasons)
        self.source = source
        preview = "\n".join(source.splitlines()[:8])
        super().__init__(
            "generated superblock rejected by the sanitizer:\n  - "
            + "\n  - ".join(self.reasons)
            + f"\nsource head:\n{preview}")


_CHECKED = 0
_REJECTED = 0


def stats() -> dict:
    """Process-local accept/reject counters (tests, CI evidence)."""
    return {"checked": _CHECKED, "rejected": _REJECTED}


def reset_stats() -> None:
    global _CHECKED, _REJECTED
    _CHECKED = 0
    _REJECTED = 0


def sanitizer_enabled() -> bool:
    """On unless ``REPRO_SANITIZE=0`` (results never depend on it —
    the sanitizer only vets source, it cannot alter it)."""
    return os.environ.get("REPRO_SANITIZE", "1").strip().lower() \
        not in ("0", "false", "no", "off")


def _collect_locals(function: ast.FunctionDef) -> Set[str]:
    names: Set[str] = {arg.arg for arg in function.args.args}
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and isinstance(
                node.ctx, (ast.Store, ast.Del)):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
        elif isinstance(node, ast.For) and isinstance(node.target,
                                                      ast.Name):
            names.add(node.target.id)
    return names


class _Checker(ast.NodeVisitor):
    def __init__(self, env: FrozenSet[str],
                 local_names: Set[str]) -> None:
        self.env = env
        self.locals = local_names
        self.reasons: List[str] = []

    def _reject(self, node: ast.AST, why: str) -> None:
        line = getattr(node, "lineno", "?")
        self.reasons.append(f"line {line}: {why}")

    # -- blanket bans ---------------------------------------------------

    def generic_visit(self, node: ast.AST) -> None:
        if isinstance(node, FORBIDDEN_NODES):
            self._reject(node,
                         f"{type(node).__name__} is not allowed in "
                         "generated block code")
        super().generic_visit(node)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        # only the top-level _block; the walker enters it explicitly
        self._reject(node, "nested function definition")

    # -- name resolution ------------------------------------------------

    def visit_Name(self, node: ast.Name) -> None:
        if isinstance(node.ctx, ast.Load):
            name = node.id
            if (name not in self.locals and name not in self.env
                    and name not in ALLOWED_BUILTINS):
                self._reject(node, f"read of unknown name {name!r}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr.startswith("__"):
            self._reject(node, f"dunder attribute {node.attr!r}")
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            base = node.value
            if not (isinstance(base, ast.Name)
                    and (base.id == "state" or base.id in self.env)):
                target = ast.unparse(node)
                self._reject(node,
                             f"attribute write to {target!r} outside "
                             "machine/timing state roots")
        self.generic_visit(node)

    def visit_Subscript(self, node: ast.Subscript) -> None:
        if isinstance(node.ctx, (ast.Store, ast.Del)):
            base = node.value
            if not (isinstance(base, ast.Name)
                    and (base.id in self.locals
                         or base.id in self.env)):
                target = ast.unparse(node)
                self._reject(node,
                             f"subscript write to {target!r} outside "
                             "block locals / environment arrays")
        self.generic_visit(node)

    # -- calls ----------------------------------------------------------

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            if (name not in self.env and name not in self.locals
                    and name not in ALLOWED_BUILTINS):
                self._reject(node, f"call to unknown name {name}()")
        elif isinstance(func, ast.Attribute):
            base = func.value
            ok = (isinstance(base, ast.Name)
                  and base.id in self.locals
                  and func.attr in LIST_MUTATORS)
            if not ok:
                self._reject(node,
                             f"method call {ast.unparse(func)}() is "
                             "not a list mutator on a block local")
        else:
            self._reject(node,
                         f"call through {type(func).__name__} "
                         "expression")
        self.generic_visit(node)

    # -- control flow ---------------------------------------------------

    def visit_Raise(self, node: ast.Raise) -> None:
        exc = node.exc
        ok = False
        if isinstance(exc, ast.Name):
            ok = exc.id in self.locals           # re-raise a held fault
        elif isinstance(exc, ast.Call) and isinstance(exc.func,
                                                      ast.Name):
            ok = exc.func.id in self.env         # guest trap types
        if not ok:
            self._reject(node, "raise of a non-environment exception")
        self.generic_visit(node)

    def visit_ExceptHandler(self, node: ast.ExceptHandler) -> None:
        kinds = []
        if isinstance(node.type, ast.Name):
            kinds = [node.type]
        elif isinstance(node.type, ast.Tuple):
            kinds = list(node.type.elts)
        for kind in kinds:
            if not (isinstance(kind, ast.Name)
                    and kind.id in self.env):
                self._reject(node,
                             "except clause over a non-environment "
                             "exception type")
        self.generic_visit(node)


def sanitize_block_source(source: str,
                          env_names: Collection[str],
                          flavor: str = "fast") -> None:
    """Verify one generated block source; raise :class:`SanitizerError`.

    ``env_names`` is the set of globals the translator will ``exec``
    the compiled code against (semantic helpers, memory accessors,
    trap types, and — for fused flavours — the codegen environment).
    Anything outside that set, the block's own locals, and a tiny
    builtin whitelist is a violation.
    """
    global _CHECKED, _REJECTED
    _CHECKED += 1
    reasons: List[str] = []
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        reasons.append(f"not parseable: {exc}")
        tree = None
    if tree is not None:
        body = tree.body
        if (len(body) != 1 or not isinstance(body[0], ast.FunctionDef)
                or body[0].name != "_block"):
            reasons.append("module must be exactly one "
                           "'def _block(state, budget)'")
        else:
            function = body[0]
            args = function.args
            if ([arg.arg for arg in args.args] != ["state", "budget"]
                    or args.posonlyargs or args.kwonlyargs
                    or args.vararg or args.kwarg or args.defaults
                    or function.decorator_list):
                reasons.append("_block signature must be exactly "
                               "(state, budget) with no decorators")
            checker = _Checker(frozenset(env_names),
                               _collect_locals(function))
            for statement in function.body:
                checker.visit(statement)
            reasons.extend(checker.reasons)
    if reasons:
        _REJECTED += 1
        mirror_check_metrics("sanitizer", rejected=True)
        raise SanitizerError(reasons, source)
    mirror_check_metrics("sanitizer", rejected=False)


def mirror_check_metrics(prefix: str, rejected: bool) -> None:
    """Mirror one accept/reject decision into the obs registry as
    ``{prefix}.checked`` / ``{prefix}.rejected`` (no-op unless metrics
    are enabled — see :mod:`repro.obs.registry`).  Shared by this
    sanitizer and the symbolic verifier (:mod:`.symexec`) so both
    gates report under the same counter conventions."""
    from repro.obs import get_registry  # lazy: keep import cost off
    registry = get_registry()           # the non-instrumented path
    registry.counter(f"{prefix}.checked").inc()
    if rejected:
        registry.counter(f"{prefix}.rejected").inc()
