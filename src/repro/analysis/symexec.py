"""Symbolic verifier for generated superblocks and megablocks.

The translator (:mod:`repro.vm.translator`) and the fused timing
codegen (:mod:`repro.timing.codegen`) emit Python source for
``_block(state, budget)`` functions.  This module *proves* each emitted
function equivalent to the ISA semantics of its decoded instructions:

1. :class:`_Exec` abstractly interprets the generated AST over the
   symbolic domain of :mod:`.symstate` — registers, guest memory,
   ``icount`` and the budget all start symbolic, conditional branches
   fork the path, timing-model forks merge back (their arms differ
   only in timing locals, which the merge replaces with fresh
   opaques), and every memory access forks a guest-fault path.
2. :mod:`.refsem` independently derives the reference state-update
   summary for the same instructions straight from ``repro.isa`` +
   ``repro.vm.semantics``.
3. The two multisets of :class:`~.symstate.ExitSummary` are compared
   exactly — architectural effects (register writes, stores, pc,
   traps, events), accounting invariants (``icount``/
   ``VS.block_dispatches`` deltas, executed-count return values,
   fault stubs restoring ``pc`` and folding ``block_progress``) and
   the megablock exit-stub guard contract (next-pc, budget, halted,
   pending-IRQ and generation-epoch atoms, in order).

Three consumers: ``python -m repro verify-codegen`` (the corpus
driver in :mod:`.verifyreport`), the opt-in ``REPRO_VERIFY=1`` deep
check at the translator seam (:func:`hook_block`,
:func:`hook_inline_chain` — layered above the syntactic sanitizer and
sharing its counter conventions),
and the mutation self-check tests, which seed deliberate codegen bugs
and assert every one produces a diff.
"""

from __future__ import annotations

import ast
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (Any, Dict, Iterator, List, Optional, Sequence,
                    Tuple)

from repro.isa import Instr, Op

from .refsem import (apply_body, branch_cond, is_loop_form,
                     terminator_exits)
from .symstate import (MASK64, ExitDiff, ExitSummary, SymState, Term,
                       compare_exits, entry_state, fresh_opaque,
                       is_concrete, summarize, t_add, t_and, t_band,
                       t_bor, t_bxor, t_call, t_cmp, t_floordiv,
                       t_ifexp, t_lshift, t_mod, t_mul, t_neg, t_not,
                       t_or, t_rshift, t_sub)

__all__ = [
    "ProtocolError", "VerifyError", "Captured",
    "verify_block_source", "verify_inline_chain",
    "hook_block", "hook_inline_chain",
    "verifier_enabled", "verifier_active", "capture",
    "stats", "reset_stats",
]

#: guest-memory helper names in the translation environment
_LD_HELPERS: Dict[str, Any] = {"ld1": 1, "ld2": 2, "ld4": 4,
                               "ld8": 8, "ldf": "f"}
_ST_HELPERS: Dict[str, Any] = {"st1": 1, "st2": 2, "st4": 4,
                               "st8": 8, "stf": "f"}
#: pure arithmetic helpers folded through the real semantics
_SEM_HELPERS = frozenset({
    "s64", "sx8", "sx16", "sx32", "idiv", "irem", "fdiv", "fsqrt",
    "fmin2", "fmax2", "f2i", "float", "abs",
})
_TRAP_NAMES = ("SyscallTrap", "BreakpointTrap")

_BINOPS: Dict[type, Any] = {
    ast.Add: t_add, ast.Sub: t_sub, ast.Mult: t_mul,
    ast.FloorDiv: t_floordiv, ast.Mod: t_mod, ast.LShift: t_lshift,
    ast.RShift: t_rshift, ast.BitAnd: t_band, ast.BitOr: t_bor,
    ast.BitXor: t_bxor,
}
_CMPOPS: Dict[type, str] = {
    ast.Eq: "eq", ast.NotEq: "ne", ast.Lt: "lt", ast.LtE: "le",
    ast.Gt: "gt", ast.GtE: "ge",
}

#: an executor outcome: ("fall"|"break"|"continue", state) or
#: ("return", state, value) or ("raise", state, exc)
Outcome = Tuple[Any, ...]


class ProtocolError(Exception):
    """The generated source violates a structural invariant the
    executor relies on (an unknown statement form, a loop where none
    belongs...).  Itself a finding: the
    verifier reports it as a diff rather than crashing."""


class VerifyError(Exception):
    """Raised by the ``REPRO_VERIFY=1`` deep-check hooks on a diff."""

    def __init__(self, label: str, diffs: List[ExitDiff],
                 source: str) -> None:
        self.label = label
        self.diffs = diffs
        self.source = source
        body = "\n".join(d.format() for d in diffs)
        super().__init__(
            f"generated code for {label} diverges from the ISA "
            f"reference semantics ({len(diffs)} diff(s)):\n{body}")


# ----------------------------------------------------------------------
# path merging (timing-model forks)

def _arch_equal(a: SymState, b: SymState) -> bool:
    """Whether two forked states agree on everything but locals."""
    if a.epoch != b.epoch or a.nmem != b.nmem:
        return False
    if a.stores != b.stores or a.events != b.events:
        return False
    if not a.conds or not b.conds:
        return False
    if a.conds[:-1] != b.conds[:-1] or a.conds[-1][0] != b.conds[-1][0]:
        return False
    for i in set(a.regs) | set(b.regs):
        if a.regs.get(i, a.reg_default(i)) != b.regs.get(
                i, b.reg_default(i)):
            return False
    for i in set(a.fregs) | set(b.fregs):
        if a.fregs.get(i, a.freg_default(i)) != b.fregs.get(
                i, b.freg_default(i)):
            return False
    for name in set(a.attrs) | set(b.attrs):
        default = ("sym", f"state.{name}@0")
        if a.attrs.get(name, default) != b.attrs.get(name, default):
            return False
    for name in set(a.vs) | set(b.vs):
        default = ("sym", f"vs0.{name}")
        if a.vs.get(name, default) != b.vs.get(name, default):
            return False
    return True


def _merge(a: SymState, b: SymState) -> Optional[SymState]:
    """Join the two arms of a timing-only fork; locals that diverged
    become fresh opaques (they never reach architectural state — if
    one does later, the opaque surfaces in the summary diff)."""
    if not _arch_equal(a, b):
        return None
    out = a.clone()
    out.conds.pop()
    for name in set(a.locs) | set(b.locs):
        if a.locs.get(name) != b.locs.get(name):
            out.locs[name] = fresh_opaque(f"phi.{name}")
    return out


# ----------------------------------------------------------------------
# the abstract interpreter

class _Exec:
    """Symbolically execute one generated ``_block`` function."""

    def __init__(self, source: str, kind: Any) -> None:
        self.source = source
        self.lines = source.splitlines()
        self.kind = kind
        self._faults: List[Tuple[SymState, Term]] = []
        self._backedges: List[SymState] = []
        self._loop_done = False

    # -- entry ----------------------------------------------------------

    def run(self) -> List[Tuple[ExitSummary,
                                Tuple[Tuple[int, str], ...]]]:
        tree = ast.parse(self.source)
        if len(tree.body) != 1 or not isinstance(tree.body[0],
                                                 ast.FunctionDef):
            raise ProtocolError("expected a single _block function")
        fn = tree.body[0]
        if fn.name != "_block":
            raise ProtocolError(f"unexpected function name {fn.name!r}")
        params = [arg.arg for arg in fn.args.args]
        if params != ["state", "budget"]:
            raise ProtocolError(
                f"unexpected signature _block({', '.join(params)})")
        st = entry_state(self.kind.pc_entry)
        results = []
        for out in self.run_stmts(st, fn.body):
            if out[0] == "return":
                summary = self._summ(out[1], "return", executed=out[2])
            elif out[0] == "raise":
                summary = self._summ(out[1], "raise", exc=out[2])
            else:
                raise ProtocolError(
                    f"control fell off the function end ({out[0]})")
            results.append((summary, tuple(out[1].trace)))
        for state in self._backedges:
            results.append((self._summ(state, "backedge"),
                            tuple(state.trace)))
        return results

    def _summ(self, st: SymState, kind: str,
              executed: Optional[Term] = None,
              exc: Optional[Term] = None) -> ExitSummary:
        return summarize(
            st, kind, executed, exc,
            tracked_locals=self.kind.tracked_locals)

    def _note(self, st: SymState, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 0)
        text = (self.lines[lineno - 1].strip()
                if 0 < lineno <= len(self.lines) else "?")
        st.trace.append((lineno, text))

    # -- statements -----------------------------------------------------

    def run_stmts(self, st: SymState,
                  stmts: Sequence[ast.stmt]) -> List[Outcome]:
        outs: List[Outcome] = [("fall", st)]
        for node in stmts:
            nxt: List[Outcome] = []
            for out in outs:
                if out[0] != "fall":
                    nxt.append(out)
                    continue
                nxt.extend(self.exec_stmt(out[1], node))
            outs = nxt
        return outs

    def exec_stmt(self, st: SymState, node: ast.stmt) -> List[Outcome]:
        """One statement; guest-fault forks become raise outcomes."""
        outer = self._faults
        self._faults = []
        try:
            outs = self._stmt(st, node)
        finally:
            faults, self._faults = self._faults, outer
        if faults:
            outs = [("raise", fs, ft) for fs, ft in faults] + outs
        return outs

    def _stmt(self, st: SymState, node: ast.stmt) -> List[Outcome]:
        if isinstance(node, ast.Assign):
            value = self.eval(st, node.value)
            for target in node.targets:
                self._assign(st, target, value, node)
            return [("fall", st)]
        if isinstance(node, ast.AugAssign):
            fn = _BINOPS.get(type(node.op))
            if fn is None:
                raise ProtocolError(
                    f"unsupported augmented op at line {node.lineno}")
            current = self.eval(st, node.target)
            value = fn(current, self.eval(st, node.value))
            self._assign(st, node.target, value, node)
            return [("fall", st)]
        if isinstance(node, ast.Expr):
            self.eval(st, node.value)
            return [("fall", st)]
        if isinstance(node, ast.Return):
            value = (self.eval(st, node.value)
                     if node.value is not None else None)
            self._note(st, node)
            return [("return", st, value)]
        if isinstance(node, ast.Raise):
            if node.exc is None:
                raise ProtocolError(f"bare raise at line {node.lineno}")
            exc = self.eval(st, node.exc)
            if not (isinstance(exc, tuple)
                    and exc[0] in ("trap", "fault")):
                raise ProtocolError(
                    f"raise of a non-exception term at line "
                    f"{node.lineno}")
            self._note(st, node)
            return [("raise", st, exc)]
        if isinstance(node, ast.If):
            return self._stmt_if(st, node)
        if isinstance(node, ast.While):
            return self._stmt_while(st, node)
        if isinstance(node, ast.Try):
            return self._stmt_try(st, node)
        if isinstance(node, ast.Break):
            return [("break", st)]
        if isinstance(node, ast.Continue):
            return [("continue", st)]
        if isinstance(node, ast.Pass):
            return [("fall", st)]
        raise ProtocolError(
            f"unsupported statement {type(node).__name__} at line "
            f"{getattr(node, 'lineno', 0)}")

    def _stmt_if(self, st: SymState, node: ast.If) -> List[Outcome]:
        cond = self.eval(st, node.test)
        if is_concrete(cond):
            branch = node.body if cond else node.orelse
            if not branch:
                return [("fall", st)]
            return self.run_stmts(st, branch)
        true_st = st.clone()
        true_st.conds.append((cond, True))
        st.conds.append((cond, False))
        t_outs = self.run_stmts(true_st, node.body)
        f_outs = (self.run_stmts(st, node.orelse)
                  if node.orelse else [("fall", st)])
        if (len(t_outs) == 1 and len(f_outs) == 1
                and t_outs[0][0] == "fall" and f_outs[0][0] == "fall"):
            merged = _merge(t_outs[0][1], f_outs[0][1])
            if merged is not None:
                return [("fall", merged)]
        return t_outs + f_outs

    def _stmt_while(self, st: SymState,
                    node: ast.While) -> List[Outcome]:
        if not (isinstance(node.test, ast.Constant) and node.test.value):
            raise ProtocolError(
                f"non-constant loop condition at line {node.lineno}")
        if node.orelse:
            raise ProtocolError("loop else-clause is not part of any "
                                "codegen protocol")
        if self._loop_done:
            raise ProtocolError("more than one loop in a generated "
                                "block")
        self._loop_done = True
        self.kind.pre_loop(st)
        self.kind.havoc(st)
        final: List[Outcome] = []
        for out in self.run_stmts(st, node.body):
            if out[0] in ("fall", "continue"):
                self._backedges.append(out[1])
            elif out[0] == "break":
                final.append(("fall", out[1]))
            else:
                final.append(out)
        return final

    def _stmt_try(self, st: SymState, node: ast.Try) -> List[Outcome]:
        if node.finalbody or node.orelse:
            raise ProtocolError("try finally/else is not part of any "
                                "codegen protocol")
        final: List[Outcome] = []
        for out in self.run_stmts(st, node.body):
            if out[0] != "raise":
                final.append(out)
                continue
            _, state, exc = out
            handler = self._match_handler(node.handlers, exc)
            if handler is None:
                final.append(out)
                continue
            if handler.name:
                state.locs[handler.name] = exc
            final.extend(self.run_stmts(state, handler.body))
        return final

    def _match_handler(self, handlers: Sequence[ast.ExceptHandler],
                       exc: Term) -> Optional[ast.ExceptHandler]:
        tag = exc[0]
        for handler in handlers:
            names = self._handler_names(handler)
            if tag == "trap":
                # traps subclass GuestFault in repro.mem.faults
                if exc[1] in names or "GuestFault" in names:
                    return handler
            elif "GuestFault" in names:
                return handler
        return None

    @staticmethod
    def _handler_names(handler: ast.ExceptHandler) -> List[str]:
        kind = handler.type
        if isinstance(kind, ast.Name):
            return [kind.id]
        if isinstance(kind, ast.Tuple):
            return [elt.id for elt in kind.elts
                    if isinstance(elt, ast.Name)]
        raise ProtocolError("untyped except clause")

    # -- assignment targets ---------------------------------------------

    def _assign(self, st: SymState, target: ast.expr, value: Term,
                node: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            st.locs[target.id] = value
            return
        if isinstance(target, ast.Attribute):
            base = self.eval(st, target.value)
            if base == ("state",):
                self._note(st, node)
                st.write_attr(target.attr, value)
            elif base == ("env", "VS"):
                self._note(st, node)
                st.write_vs(target.attr, value)
            # any other attribute write lands in opaque timing/machine
            # state and is not architectural
            return
        if isinstance(target, ast.Subscript):
            base = self.eval(st, target.value)
            index = self.eval(st, target.slice)
            if base == ("regs",):
                if not isinstance(index, int):
                    raise ProtocolError(
                        f"dynamic register index at line {node.lineno}")
                self._note(st, node)
                st.write_reg(index, value)
            elif base == ("fregs",):
                if not isinstance(index, int):
                    raise ProtocolError(
                        f"dynamic register index at line {node.lineno}")
                self._note(st, node)
                st.write_freg(index, value)
            # opaque-environment element writes are not architectural
            return
        if isinstance(target, ast.Tuple):
            if isinstance(value, tuple) and value[:1] == ("tuple",):
                items = value[1:]
                if len(items) != len(target.elts):
                    raise ProtocolError(
                        f"unpack arity mismatch at line {node.lineno}")
                for elt, item in zip(target.elts, items):
                    self._assign(st, elt, item, node)
            else:
                # e.g. ``_ui0, _ui1 = FUI`` — unpacking an opaque
                # environment sequence yields fresh unknowns
                base = (value[1] if isinstance(value, tuple)
                        and value[0] in ("env", "opaque") else "unpack")
                for j, elt in enumerate(target.elts):
                    self._assign(st, elt, fresh_opaque(f"{base}[{j}]"),
                                 node)
            return
        raise ProtocolError(
            f"unsupported assignment target at line {node.lineno}")

    # -- expressions ----------------------------------------------------

    def eval(self, st: SymState, node: ast.expr) -> Term:
        if isinstance(node, ast.Constant):
            return node.value
        if isinstance(node, ast.Name):
            name = node.id
            if name in st.locs:
                return st.locs[name]
            if name == "state":
                return ("state",)
            if name == "M":
                return MASK64
            return ("env", name)
        if isinstance(node, ast.Attribute):
            base = self.eval(st, node.value)
            attr = node.attr
            if base == ("state",):
                if attr == "regs":
                    return ("regs",)
                if attr == "fregs":
                    return ("fregs",)
                return st.read_attr(attr)
            if base == ("env", "VS"):
                return st.read_vs(attr)
            if isinstance(base, tuple) and base[0] in ("env", "opaque"):
                return fresh_opaque(f"{base[1]}.{attr}")
            return fresh_opaque(f"?.{attr}")
        if isinstance(node, ast.Subscript):
            return self._subscript(st, node)
        if isinstance(node, ast.BinOp):
            fn = _BINOPS.get(type(node.op))
            if fn is None:
                raise ProtocolError(
                    f"unsupported operator at line {node.lineno}")
            return fn(self.eval(st, node.left),
                      self.eval(st, node.right))
        if isinstance(node, ast.UnaryOp):
            value = self.eval(st, node.operand)
            if isinstance(node.op, ast.USub):
                return t_neg(value)
            if isinstance(node.op, ast.Not):
                return t_not(value)
            if isinstance(node.op, ast.Invert):
                if is_concrete(value):
                    return ~value
                raise ProtocolError(
                    f"symbolic bitwise-not at line {node.lineno}")
            raise ProtocolError(
                f"unsupported unary op at line {node.lineno}")
        if isinstance(node, ast.BoolOp):
            values = [self.eval(st, item) for item in node.values]
            return (t_or(values) if isinstance(node.op, ast.Or)
                    else t_and(values))
        if isinstance(node, ast.Compare):
            return self._compare(st, node)
        if isinstance(node, ast.IfExp):
            return t_ifexp(self.eval(st, node.test),
                           self.eval(st, node.body),
                           self.eval(st, node.orelse))
        if isinstance(node, ast.Tuple):
            return ("tuple",) + tuple(self.eval(st, elt)
                                      for elt in node.elts)
        if isinstance(node, ast.Call):
            return self._call(st, node)
        raise ProtocolError(
            f"unsupported expression {type(node).__name__} at line "
            f"{getattr(node, 'lineno', 0)}")

    def _subscript(self, st: SymState, node: ast.Subscript) -> Term:
        base = self.eval(st, node.value)
        index = self.eval(st, node.slice)
        if base == ("regs",):
            if not isinstance(index, int):
                raise ProtocolError(
                    f"dynamic register index at line {node.lineno}")
            return st.read_reg(index)
        if base == ("fregs",):
            if not isinstance(index, int):
                raise ProtocolError(
                    f"dynamic register index at line {node.lineno}")
            return st.read_freg(index)
        if isinstance(base, tuple) and base[:1] == ("tuple",):
            if isinstance(index, int) and not isinstance(index, bool):
                items = base[1:]
                return items[index]
            return fresh_opaque("tuple[]")
        if base == ("env", "SINK") and index == 0:
            return ("sinkfn",)
        if isinstance(base, tuple) and base[0] in ("env", "opaque"):
            suffix = f"[{index}]" if isinstance(index, int) else "[]"
            return fresh_opaque(f"{base[1]}{suffix}")
        return fresh_opaque("item")

    def _compare(self, st: SymState, node: ast.Compare) -> Term:
        if len(node.ops) != 1:
            raise ProtocolError(
                f"chained comparison at line {node.lineno}")
        a = self.eval(st, node.left)
        b = self.eval(st, node.comparators[0])
        op = node.ops[0]
        key = _CMPOPS.get(type(op))
        if key is not None:
            return t_cmp(key, a, b)
        if isinstance(op, (ast.Is, ast.IsNot)):
            negate = isinstance(op, ast.IsNot)
            value = a if b is None else (b if a is None else None)
            if a is None and b is None:
                return not negate
            if value is None:
                raise ProtocolError(
                    f"identity comparison of two non-None terms at "
                    f"line {node.lineno}")
            if isinstance(value, tuple) and value[0] in ("trap",
                                                         "fault"):
                return negate        # an exception value is never None
            if not isinstance(value, tuple):
                return (value is None) != negate
            return ("isnot", value) if negate else ("is", value)
        if isinstance(op, ast.In):
            return ("in", a, b)
        if isinstance(op, ast.NotIn):
            return ("notin", a, b)
        raise ProtocolError(
            f"unsupported comparison at line {node.lineno}")

    def _call(self, st: SymState, node: ast.Call) -> Term:
        func = node.func
        if node.keywords:
            raise ProtocolError(
                f"keyword arguments at line {node.lineno}")
        if isinstance(func, ast.Name) and func.id not in st.locs:
            name = func.id
            if name in _LD_HELPERS:
                self._note(st, node)
                addr = self.eval(st, node.args[0])
                value, fork = st.mem_read(_LD_HELPERS[name], addr)
                self._faults.append(fork)
                return value
            if name in _ST_HELPERS:
                self._note(st, node)
                addr = self.eval(st, node.args[0])
                value = self.eval(st, node.args[1])
                self._faults.append(
                    st.mem_write(_ST_HELPERS[name], addr, value))
                return None
            if name in _TRAP_NAMES:
                args = [self.eval(st, arg) for arg in node.args]
                return ("trap", name, args[0] if args else 0)
            if name in _SEM_HELPERS:
                return t_call(name,
                              [self.eval(st, arg) for arg in node.args])
            if name in ("int", "len"):
                args = [self.eval(st, arg) for arg in node.args]
                if name == "int" and args and is_concrete(args[0]):
                    return int(args[0])
                return fresh_opaque(f"{name}()")
            for arg in node.args:
                self.eval(st, arg)
            return fresh_opaque(f"{name}()")
        value = self.eval(st, func)
        if value == ("sinkfn",):
            args = tuple(self.eval(st, arg) for arg in node.args)
            st.events.append(args)
            return None
        for arg in node.args:
            self.eval(st, arg)
        return fresh_opaque("call()")


# ----------------------------------------------------------------------
# verification kinds: what "correct" means for each emitted form

def _check_clean_entry(st: SymState, pc_entry: int) -> None:
    if st.conds or st.stores or st.events or st.nmem:
        raise ProtocolError("loop entered with pending effects")
    if st.regs or st.fregs:
        raise ProtocolError("loop entered with modified registers")
    if st.attrs.get("pc") != pc_entry:
        raise ProtocolError("loop entered with pc moved")


class _KindBase:
    """Shared protocol defaults for the per-form verifiers."""

    pc_entry: int
    tracked_locals: Tuple[str, ...] = ()

    def pre_loop(self, st: SymState) -> None:
        raise ProtocolError("unexpected loop in this block form")

    def havoc(self, st: SymState) -> None:
        raise ProtocolError("unexpected loop in this block form")

    def expected(self) -> List[ExitSummary]:
        raise NotImplementedError

    def _summ(self, st: SymState, kind: str,
              executed: Optional[Term] = None,
              exc: Optional[Term] = None) -> ExitSummary:
        return summarize(st, kind, executed, exc,
                         tracked_locals=self.tracked_locals)


class _BlockKind(_KindBase):
    """A single translated superblock (fast/event) or fused
    (timed/warming) block."""

    def __init__(self, pc0: int, instrs: Sequence[Instr],
                 flavor: str) -> None:
        if flavor not in ("fast", "event", "timed", "warm"):
            raise ValueError(f"unknown flavor {flavor!r}")
        if not instrs:
            raise ValueError("empty block")
        self.pc0 = pc0
        self.pc_entry = pc0
        self.instrs = list(instrs)
        self.flavor = flavor
        self.event = flavor == "event"
        self.length = len(self.instrs)
        # only the fast flavour compiles loop-form blocks into an
        # internal while; fused flavours always exit per dispatch
        self.loop = (flavor == "fast"
                     and is_loop_form(pc0, self.instrs, False))
        self.tracked_locals = ("n",) if self.loop else ()

    def pre_loop(self, st: SymState) -> None:
        if not self.loop:
            raise ProtocolError("unexpected loop in a non-loop block")
        if st.locs.get("n") != 0:
            raise ProtocolError("loop entered with n != 0")
        _check_clean_entry(st, self.pc0)

    def havoc(self, st: SymState) -> None:
        st.havoc_registers()
        st.stores.clear()
        st.events.clear()
        st.conds.clear()
        st.nmem = 0
        st.locs["n"] = t_mul(("sym", "K"), self.length)

    def expected(self) -> List[ExitSummary]:
        if self.loop:
            return self._expected_loop()
        pc0 = self.pc0
        length = self.length
        st = entry_state(pc0)
        faults: List[Tuple[SymState, Term]] = []
        out: List[ExitSummary] = []
        for i, instr in enumerate(self.instrs[:-1]):
            apply_body(st, instr, pc0 + 4 * i, i, i, self.event,
                       faults)
        exits = terminator_exits(
            st, self.instrs[-1], pc0 + 4 * (length - 1), length - 1,
            length, length - 1, self.event, faults)
        for fst, fexc in faults:
            out.append(self._summ(fst, "raise", exc=fexc))
        for es, eexc in exits:
            if eexc is None:
                out.append(self._summ(es, "return", executed=length))
            else:
                out.append(self._summ(es, "raise", exc=eexc))
        return out

    def _expected_loop(self) -> List[ExitSummary]:
        pc0 = self.pc0
        length = self.length
        st = entry_state(pc0)
        st.havoc_registers()
        n0 = t_mul(("sym", "K"), length)
        faults: List[Tuple[SymState, Term]] = []
        out: List[ExitSummary] = []
        for i, instr in enumerate(self.instrs[:-1]):
            apply_body(st, instr, pc0 + 4 * i, i, t_add(n0, i),
                       False, faults)
        for fst, fexc in faults:
            out.append(self._summ(fst, "raise", exc=fexc))
        cond = branch_cond(st, self.instrs[-1])
        fall = (pc0 + length * 4) & MASK64
        n1 = t_add(n0, length)

        def taken(s: SymState) -> None:
            # budget check: another full iteration must fit
            bc = t_cmp("le", t_add(n1, length), ("sym", "budget"))
            back = s.clone()
            back.conds.append((bc, True))
            back.locs["n"] = n1
            out.append(self._summ(back, "backedge"))
            s.conds.append((bc, False))
            s.write_attr("pc", pc0)
            out.append(self._summ(s, "return", executed=n1))

        def fell(s: SymState) -> None:
            s.write_attr("pc", fall)
            out.append(self._summ(s, "return", executed=n1))

        if is_concrete(cond):
            if cond:
                taken(st)
            else:
                fell(st)
        else:
            ts = st.clone()
            ts.conds.append((cond, True))
            st.conds.append((cond, False))
            taken(ts)
            fell(st)
        return out


class _InlineChainKind(_KindBase):
    """An inline megablock: fragment bodies spliced into one loop."""

    def __init__(self, frags: Sequence[Tuple[int, Sequence[Instr]]],
                 loop_back: bool) -> None:
        self.frags = [(pc, list(instrs)) for pc, instrs in frags]
        if not self.frags or any(not i for _pc, i in self.frags):
            raise ValueError("empty chain fragment")
        self.loop_back = loop_back
        self.head = self.frags[0][0]
        self.pc_entry = self.head
        self.single_loop = loop_back and len(self.frags) == 1
        self.track_icount = any(
            instr.op == Op.RDINSTR
            for _pc, instrs in self.frags for instr in instrs)
        self.tracked_locals = (("_base",) if self.single_loop
                               else ("_base", "_d"))

    def pre_loop(self, st: SymState) -> None:
        if st.locs.get("_base") != 0:
            raise ProtocolError("chain loop entered with _base != 0")
        if not self.single_loop and st.locs.get("_d") != 0:
            raise ProtocolError("chain loop entered with _d != 0")
        if st.locs.get("_flt") is not None:
            raise ProtocolError("chain loop entered with _flt set")
        _check_clean_entry(st, self.head)

    def havoc(self, st: SymState) -> None:
        st.havoc_registers()
        st.stores.clear()
        st.events.clear()
        st.conds.clear()
        st.nmem = 0
        if self.single_loop:
            base0: Term = t_mul(("sym", "K"), len(self.frags[0][1]))
        else:
            base0 = ("sym", "B")
        st.locs["_base"] = base0
        if not self.single_loop:
            st.locs["_d"] = ("sym", "D")
        st.attrs["pc"] = self.head
        st.attrs["halted"] = False
        st.attrs["block_progress"] = 0
        # completed fragments already advanced icount by _base
        st.attrs["icount"] = (
            t_add(("sym", "icount0"), base0)
            if self.track_icount else ("sym", "icount0"))

    def _dispatch_delta(self, base_cur: Term,
                        d_cur: Optional[Term], length: int) -> Term:
        # single-fragment loops reconstruct the dispatch count from
        # _base; multi-fragment chains carry it in _d
        if self.single_loop:
            return t_floordiv(base_cur, length)
        assert d_cur is not None
        return d_cur

    def _chain_raise(self, out: List[ExitSummary], s: SymState,
                     exc: Term, base_cur: Term, d_cur: Optional[Term],
                     length: int) -> None:
        s.write_attr("block_progress",
                     t_add(base_cur, s.read_attr("block_progress")))
        if self.track_icount:
            s.write_attr("icount",
                         t_sub(s.read_attr("icount"), base_cur))
        s.write_vs("block_dispatches",
                   t_add(s.read_vs("block_dispatches"),
                         self._dispatch_delta(base_cur, d_cur,
                                              length)))
        out.append(self._summ(s, "raise", exc=exc))

    def _chain_return(self, out: List[ExitSummary], s: SymState,
                      base_cur: Term, d_cur: Optional[Term],
                      length: int) -> None:
        if self.track_icount:
            s.write_attr("icount",
                         t_sub(s.read_attr("icount"), base_cur))
        s.write_vs("block_dispatches",
                   t_add(s.read_vs("block_dispatches"),
                         self._dispatch_delta(base_cur, d_cur,
                                              length)))
        out.append(self._summ(s, "return",
                              executed=t_add(base_cur, length)))

    def expected(self) -> List[ExitSummary]:
        out: List[ExitSummary] = []
        st = entry_state(self.head)
        self.havoc(st)
        lims = {length: t_sub(("sym", "budget"), length)
                for length in {len(i) for _pc, i in self.frags}}
        states = [st]
        nfrags = len(self.frags)
        for k, (pc0, instrs) in enumerate(self.frags):
            length = len(instrs)
            nxt: List[SymState] = []
            for s in states:
                base_cur = s.locs["_base"]
                d_cur = s.locs.get("_d")
                faults: List[Tuple[SymState, Term]] = []
                for i, instr in enumerate(instrs[:-1]):
                    apply_body(s, instr, pc0 + 4 * i, i, i, False,
                               faults)
                exits = terminator_exits(
                    s, instrs[-1], pc0 + 4 * (length - 1),
                    length - 1, length, length - 1, False, faults)
                for fst, fexc in faults:
                    # fault stub restores pc from the fragment-local
                    # progress the body recorded
                    index = fst.read_attr("block_progress")
                    fst.write_attr(
                        "pc",
                        t_add(pc0, t_mul(t_mod(index, length), 4)))
                    self._chain_raise(out, fst, fexc, base_cur,
                                      d_cur, length)
                for es, eexc in exits:
                    if eexc is not None:
                        self._chain_raise(out, es, eexc, base_cur,
                                          d_cur, length)
                        continue
                    if k + 1 < nfrags:
                        succ: Optional[int] = self.frags[k + 1][0]
                    elif self.loop_back:
                        succ = self.head
                    else:
                        succ = None
                    if succ is None:
                        self._chain_return(out, es, base_cur, d_cur,
                                           length)
                        continue
                    atoms = [
                        t_cmp("ne", es.read_attr("pc"), succ),
                        t_cmp("ge", base_cur, lims[length]),
                        es.read_attr("halted"),
                        ("env", "IRQ"),
                        t_cmp("ne", fresh_opaque("GEN[0]"),
                              fresh_opaque("GEN[0]")),
                    ]
                    guard = t_or(atoms)
                    if guard is True:
                        self._chain_return(out, es, base_cur, d_cur,
                                           length)
                        continue
                    if guard is not False:
                        exit_st = es.clone()
                        exit_st.conds.append((guard, True))
                        self._chain_return(out, exit_st, base_cur,
                                           d_cur, length)
                        es.conds.append((guard, False))
                    es.locs["_base"] = t_add(base_cur, length)
                    if d_cur is not None:
                        es.locs["_d"] = t_add(d_cur, 1)
                    if self.track_icount:
                        es.write_attr(
                            "icount",
                            t_add(es.read_attr("icount"), length))
                    nxt.append(es)
            states = nxt
        for s in states:
            out.append(self._summ(s, "backedge"))
        return out


# ----------------------------------------------------------------------
# public verification entry points

def _run_verify(source: str, kind: Any) -> List[ExitDiff]:
    try:
        actual = _Exec(source, kind).run()
        expected = kind.expected()
    except ProtocolError as exc:
        return [ExitDiff(f"protocol violation: {exc}")]
    except RecursionError:
        return [ExitDiff("protocol violation: AST too deep")]
    return compare_exits(actual, expected)


def verify_block_source(source: str, pc0: int,
                        instrs: Sequence[Instr],
                        flavor: str = "fast") -> List[ExitDiff]:
    """Prove one translated superblock equivalent to its decoded
    instructions; returns the (possibly empty) list of diffs."""
    return _run_verify(source, _BlockKind(pc0, instrs, flavor))


def verify_inline_chain(source: str,
                        frags: Sequence[Tuple[int, Sequence[Instr]]],
                        loop_back: bool) -> List[ExitDiff]:
    """Prove an inline (spliced-body) megablock chain."""
    return _run_verify(source, _InlineChainKind(frags, loop_back))


# ----------------------------------------------------------------------
# translator seam: capture + opt-in deep checking

@dataclass(frozen=True)
class Captured:
    """One generated source captured at the translator seam, with the
    metadata needed to re-verify it offline (the corpus driver)."""

    form: str          # "block" | "chain-inline"
    flavor: str        # "fast" | "event" | "timed" | "warm"
    source: str
    pc0: int
    instrs: Tuple[Instr, ...] = ()
    frags: Tuple[Tuple[int, Tuple[Instr, ...]], ...] = ()
    loop_back: bool = False

    @property
    def tier(self) -> str:
        if self.form == "block":
            return {"fast": "fast", "event": "event",
                    "timed": "fused-timed",
                    "warm": "fused-warm"}[self.flavor]
        return "mega-inline"

    @property
    def label(self) -> str:
        return f"{self.tier}@{self.pc0:#x}"

    def verify(self) -> List[ExitDiff]:
        if self.form == "block":
            return verify_block_source(self.source, self.pc0,
                                       self.instrs, self.flavor)
        return verify_inline_chain(self.source, self.frags,
                                   self.loop_back)


_CHECKED = 0
_REJECTED = 0
_CAPTURE: Optional[List[Captured]] = None


def stats() -> Dict[str, int]:
    """Process-local verify counters (same shape as the sanitizer's)."""
    return {"checked": _CHECKED, "rejected": _REJECTED}


def reset_stats() -> None:
    global _CHECKED, _REJECTED
    _CHECKED = 0
    _REJECTED = 0


def verifier_enabled() -> bool:
    """Deep checking is opt-in: on only when ``REPRO_VERIFY`` is set
    truthy (it symbolically re-proves every fresh translation)."""
    return os.environ.get("REPRO_VERIFY", "").strip().lower() in (
        "1", "true", "yes", "on")


def verifier_active() -> bool:
    """Whether the translator seams should call the hooks at all."""
    return _CAPTURE is not None or verifier_enabled()


@contextmanager
def capture() -> Iterator[List[Captured]]:
    """Collect every source the seams see (the corpus driver);
    nested captures shadow outer ones."""
    global _CAPTURE
    prev, _CAPTURE = _CAPTURE, []
    try:
        yield _CAPTURE
    finally:
        _CAPTURE = prev


def _deep_check(label: str, source: str,
                diffs: List[ExitDiff]) -> None:
    global _CHECKED, _REJECTED
    _CHECKED += 1
    if diffs:
        _REJECTED += 1
    from .sanitizer import mirror_check_metrics
    mirror_check_metrics("verify", rejected=bool(diffs))
    if diffs:
        raise VerifyError(label, diffs, source)


def hook_block(source: str, pc0: int, instrs: Sequence[Instr],
               flavor: str) -> None:
    """Translator seam: every freshly generated superblock source."""
    item = Captured(form="block", flavor=flavor, source=source,
                    pc0=pc0, instrs=tuple(instrs))
    if _CAPTURE is not None:
        _CAPTURE.append(item)
    if verifier_enabled():
        _deep_check(item.label, source,
                    verify_block_source(source, pc0, instrs, flavor))


def hook_inline_chain(source: str,
                      frags: Sequence[Tuple[int, Sequence[Instr]]],
                      loop_back: bool, flavor: str) -> None:
    """Translator seam: every freshly generated megablock source."""
    packed = tuple((pc, tuple(instrs)) for pc, instrs in frags)
    item = Captured(form="chain-inline", flavor=flavor,
                    source=source, pc0=packed[0][0], frags=packed,
                    loop_back=loop_back)
    if _CAPTURE is not None:
        _CAPTURE.append(item)
    if verifier_enabled():
        _deep_check(item.label, source,
                    verify_inline_chain(source, packed, loop_back))
