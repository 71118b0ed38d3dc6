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

:class:`_Exec` also enforces the safety rules of generated code (the
``_rule_*`` methods), each a check on one AST node, applied where the
node is evaluated and again over every statement no path reaches.

Consumers: the translate-time gate
(:func:`repro.analysis.sanitizer.sanitize_block_source`, which every
freshly generated source passes before ``compile()``),
``python -m repro verify-codegen`` (the corpus driver in
:mod:`.verifyreport`, fed by :func:`capture`), and the mutation
self-check tests, which seed deliberate codegen bugs and assert every
one produces a diff.
"""

from __future__ import annotations

import ast
from contextlib import contextmanager
from dataclasses import dataclass
from typing import (AbstractSet, Any, Collection, Dict, FrozenSet,
                    Iterator, List, NoReturn, Optional, Sequence, Tuple)

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
    "ProtocolError", "Captured",
    "verify_block_source", "verify_inline_chain", "capture", "record",
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

#: builtins generated code may call (value producers only, no I/O)
ALLOWED_BUILTINS = frozenset({"abs", "float", "int", "len"})
#: list methods generated code calls on opaque timing state (LRU ways)
LIST_MUTATORS = frozenset({"insert", "remove", "pop", "append", "clear"})

#: the statement and expression forms the interpreter models; anything
#: else (imports, nested defs, lambdas, comprehensions, ``with``,
#: f-strings, ...) is rejected wherever it appears
_STMTS = (ast.Assign, ast.AugAssign, ast.Expr, ast.Return, ast.Raise,
          ast.If, ast.While, ast.Try, ast.Break, ast.Continue, ast.Pass)
_EXPRS = (ast.Constant, ast.Name, ast.Attribute, ast.Subscript,
          ast.BinOp, ast.UnaryOp, ast.BoolOp, ast.Compare, ast.IfExp,
          ast.Tuple, ast.Call)
#: term tags naming a machine object rather than a value: a fork that
#: leaves one of these in a local cannot be merged into an opaque
_REF_TAGS = frozenset({"state", "regs", "fregs", "sinkfn", "env"})
#: an unreached local's value when its bindings disagree or the syntax
#: does not tell: neither timing state nor the event sink
_UNKNOWN: Term = ("unknown",)
#: environment names the evaluator reads as more than opaque state
_MODELED_ENV = frozenset({"VS", "SINK"})

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
    belongs...) or a safety rule.  Itself a finding: the verifier
    reports it as a diff rather than crashing."""


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
    one does later, the opaque surfaces in the summary diff).  A local that
    names a machine object in either arm keeps the paths apart, so no
    alias of the register file or ``state`` turns opaque."""
    if not _arch_equal(a, b):
        return None
    out = a.clone()
    out.conds.pop()
    for name in set(a.locs) | set(b.locs):
        left, right = a.locs.get(name), b.locs.get(name)
        if left != right:
            if _is_ref(left) or _is_ref(right):
                return None
            out.locs[name] = fresh_opaque(_phi_label(name, left, right))
    return out


def _phi_label(name: str, left: Term, right: Term) -> str:
    """A merged local still reads from the name both arms read it from
    (a way list off ``L1DW`` on either arm stays timing state); an arm
    that leaves it unbound does not count."""
    roots = {_opaque_root(term) if _is_opaque(term) else None
             for term in (left, right) if term is not None}
    root = roots.pop() if len(roots) == 1 else None
    return f"?phi.{name}" if root is None else f"{root}.phi"


def _is_ref(term: Term) -> bool:
    return isinstance(term, tuple) and bool(term) and term[0] in _REF_TAGS


def _is_opaque(term: Term) -> bool:
    return isinstance(term, tuple) and term[:1] == ("opaque",)


def _opaque_root(term: Term) -> str:
    """The name an opaque value was first read from (``ITLBW`` for
    ``ITLBW[0]``, ``L1IW[1].x`` ...); values not read off a name get
    labels that are no identifier (``?.x``, ``?item``, ``len()`` ...)."""
    return term[1].split(".")[0].split("[")[0]


# ----------------------------------------------------------------------
# the abstract interpreter

def _reg_index(index: Term, node: ast.AST) -> int:
    if not isinstance(index, int):
        raise ProtocolError(
            f"dynamic register index at line {getattr(node, 'lineno', 0)}")
    return index


def _block_function(tree: ast.Module) -> ast.FunctionDef:
    """The module's one ``def _block(state, budget)``, exactly."""
    body = tree.body
    if (len(body) != 1 or not isinstance(body[0], ast.FunctionDef)
            or body[0].name != "_block"):
        raise ProtocolError("module must be exactly one "
                            "'def _block(state, budget)'")
    fn = body[0]
    args = fn.args
    if ([arg.arg for arg in args.args] != ["state", "budget"]
            or args.posonlyargs or args.kwonlyargs or args.vararg
            or args.kwarg or args.defaults or fn.decorator_list
            or fn.returns is not None
            or any(arg.annotation is not None for arg in args.args)):
        raise ProtocolError("_block signature must be exactly "
                            "(state, budget) with no decorators, "
                            "defaults or annotations")
    return fn


def _match_handler(handlers: Sequence[Tuple[List[str], ast.ExceptHandler]],
                   exc: Term) -> Optional[ast.ExceptHandler]:
    for names, handler in handlers:
        # traps subclass GuestFault in repro.mem.faults
        if "GuestFault" in names or (exc[0] == "trap" and exc[1] in names):
            return handler
    return None


class _Exec:
    """Symbolically execute one generated ``_block`` function against
    ``env``, the names of the globals the code runs with."""

    def __init__(self, source: str, kind: Any,
                 env: AbstractSet[str]) -> None:
        self.source = source
        self.lines = source.splitlines()
        self.kind = kind
        self.env = env
        self._faults: List[Tuple[SymState, Term]] = []
        self._backedges: List[SymState] = []
        self._loop_done = False
        #: ids of the statements and handlers some path executed, and
        #: the node lists a path skipped (a folded arm, code after a
        #: return, every handler): their unexecuted nodes are unreached
        self._reached: set = set()
        self._skipped: List[Sequence[ast.AST]] = []

    # -- entry ----------------------------------------------------------

    def run(self) -> List[Tuple[ExitSummary,
                                Tuple[Tuple[int, str], ...]]]:
        fn = _block_function(ast.parse(self.source))
        st = entry_state(self.kind.pc_entry)
        st.locs["state"] = ("state",)
        results = []
        finals: List[SymState] = []
        for out in self.run_stmts(st, fn.body):
            if out[0] == "return":
                summary = self.kind.summary(out[1], "return", out[2])
            elif out[0] == "raise":
                summary = self.kind.summary(out[1], "raise", exc=out[2])
            else:
                raise ProtocolError(
                    f"control fell off the function end ({out[0]})")
            results.append((summary, tuple(out[1].trace)))
            finals.append(out[1])
        for state in self._backedges:
            results.append((self.kind.summary(state, "backedge"),
                            tuple(state.trace)))
        self._check_unreached(finals + self._backedges)
        return results

    def _note(self, st: SymState, node: ast.AST) -> None:
        lineno = getattr(node, "lineno", 0)
        text = (self.lines[lineno - 1].strip()
                if 0 < lineno <= len(self.lines) else "?")
        st.trace.append((lineno, text))

    # -- safety rules ---------------------------------------------------
    #
    # One check per node kind.  ``locs`` maps the locals in scope to
    # their terms: the path's own where the node is evaluated; for an
    # unreached node, one term per name joined over every binding any
    # path or the unreached code itself makes (:meth:`_dead_scope`).

    @staticmethod
    def _reject(node: ast.AST, why: str) -> NoReturn:
        raise ProtocolError(f"line {getattr(node, 'lineno', '?')}: {why}")

    def _timing_state(self, term: Term) -> bool:
        """An opaque value read out of an environment name (an LRU way
        list, say) — never the register file, ``state`` or a value
        derived from either."""
        return _is_opaque(term) and _opaque_root(term) in self.env

    def _rule_name(self, node: ast.Name, locs: Collection[str]) -> None:
        name = node.id
        if (isinstance(node.ctx, ast.Load) and name not in locs
                and name not in ALLOWED_BUILTINS and name not in self.env):
            self._reject(node, f"read of unknown name {name!r}")

    def _rule_attribute(self, node: ast.Attribute,
                        locs: Collection[str]) -> None:
        if node.attr.startswith("__"):
            self._reject(node, f"dunder attribute {node.attr!r}")
        if isinstance(node.ctx, ast.Store):
            base = node.value
            if not (isinstance(base, ast.Name)
                    and (base.id == "state" or (
                        base.id not in locs and base.id in self.env))):
                self._reject(node, f"attribute write to "
                             f"{ast.unparse(node)!r} outside "
                             "machine/timing state roots")

    def _rule_subscript(self, node: ast.Subscript,
                        locs: Collection[str]) -> None:
        base = node.value
        if isinstance(node.ctx, ast.Store) and not (
                isinstance(base, ast.Name)
                and (base.id in locs or base.id in self.env)):
            self._reject(node, f"subscript write to {ast.unparse(node)!r}"
                         " outside block locals / environment arrays")

    def _rule_call(self, node: ast.Call, locs: Dict[str, Term]) -> None:
        func = node.func
        if node.keywords:
            self._reject(node, "keyword arguments")
        if isinstance(func, ast.Name):
            if func.id not in locs:
                self._rule_name(func, locs)
            elif locs[func.id] != ("sinkfn",):
                self._reject(node, f"call through local {func.id!r}, "
                             "which is not the event sink")
        elif isinstance(func, ast.Attribute):
            base = func.value
            if not (isinstance(base, ast.Name) and base.id in locs
                    and func.attr in LIST_MUTATORS
                    and self._timing_state(locs[base.id])):
                self._reject(node, f"method call {ast.unparse(func)}() "
                             "is not a list mutator on timing state")
        else:
            self._reject(node, f"call through {type(func).__name__} "
                         "expression")

    def _rule_choice(self, node: ast.expr, options: Sequence[Term]) -> None:
        """A value picked at run time (a symbolic tuple index, ``if``
        expression or ``and``/``or``) must not be a machine object: the
        pick would alias the register file or ``state`` unseen."""
        if any(_is_ref(option) and option[0] != "env"
               for option in options):
            self._reject(node, "symbolic choice between machine objects")

    def _rule_raise(self, node: ast.Raise, locs: Collection[str]) -> None:
        exc = node.exc
        held = isinstance(exc, ast.Name) and exc.id in locs
        trap = (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id not in locs and exc.func.id in self.env)
        if not (held or trap) or node.cause is not None:
            self._reject(node, "raise of a non-environment exception")

    def _handler_names(self, handler: ast.ExceptHandler) -> List[str]:
        kind = handler.type
        elts = kind.elts if isinstance(kind, ast.Tuple) else [kind]
        for elt in elts:
            if not (isinstance(elt, ast.Name) and elt.id in self.env):
                self._reject(handler, "except clause over a "
                             "non-environment exception type")
        return [elt.id for elt in elts]

    def _dead_scope(self, nodes: Sequence[ast.AST],
                    states: Sequence[SymState]) -> Dict[str, Term]:
        """Each local an unreached node may see, as one term joined over
        every binding a path or the unreached code makes: the term they
        agree on, timing state if all are (an unreached ``_w = ITLBW[0]``
        is), else :data:`_UNKNOWN`."""
        terms: Dict[str, List[Term]] = {}
        for state in states:
            for name, term in state.locs.items():
                terms.setdefault(name, []).append(term)
        values = {id(target): node.value for node in nodes
                  if isinstance(node, ast.Assign) for target in node.targets}
        stores = [(node.id, values.get(id(node))) for node in nodes
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Store)]
        stores += [(node.name, None) for node in nodes
                   if isinstance(node, ast.ExceptHandler) and node.name]
        env = self.env - _MODELED_ENV - set(terms) - {n for n, _ in stores}
        for name, value in stores:
            root = value
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            terms.setdefault(name, []).append(
                fresh_opaque(root.id) if root is not value
                and isinstance(root, ast.Name) and root.id in env
                else _UNKNOWN)
        scope: Dict[str, Term] = {}
        for name, bound in terms.items():
            agreed = (all(term == bound[0] for term in bound)
                      or all(self._timing_state(term) for term in bound))
            scope[name] = bound[0] if agreed else _UNKNOWN
        return scope

    def _check_unreached(self, states: Sequence[SymState]) -> None:
        """The safety rules over every statement no path reached."""
        dead = {id(node): node for block in self._skipped
                for node in block if id(node) not in self._reached}
        if not dead:
            return
        nodes = [node for root in dead.values() for node in ast.walk(root)]
        scope = self._dead_scope(nodes, states)
        for node in nodes:
            if isinstance(node, ast.stmt):
                if not isinstance(node, _STMTS):
                    self._reject(node, "unsupported statement "
                                 f"{type(node).__name__}")
                if isinstance(node, ast.Raise):
                    self._rule_raise(node, scope)
            elif isinstance(node, ast.expr):
                if not isinstance(node, _EXPRS):
                    self._reject(node, "unsupported expression "
                                 f"{type(node).__name__}")
                if isinstance(node, ast.Name):
                    self._rule_name(node, scope)
                elif isinstance(node, ast.Attribute):
                    self._rule_attribute(node, scope)
                elif isinstance(node, ast.Subscript):
                    self._rule_subscript(node, scope)
                elif isinstance(node, ast.Call):
                    self._rule_call(node, scope)
            elif isinstance(node, ast.ExceptHandler):
                self._handler_names(node)

    # -- statements -----------------------------------------------------

    def run_stmts(self, st: SymState,
                  stmts: Sequence[ast.stmt]) -> List[Outcome]:
        outs: List[Outcome] = [("fall", st)]
        for index, node in enumerate(stmts):
            nxt: List[Outcome] = []
            falls = False
            for out in outs:
                if out[0] != "fall":
                    nxt.append(out)
                    continue
                falls = True
                nxt.extend(self.exec_stmt(out[1], node))
            if not falls:
                self._skipped.append(stmts[index:])
                break
            outs = nxt
        return outs

    def exec_stmt(self, st: SymState, node: ast.stmt) -> List[Outcome]:
        """One statement; guest-fault forks become raise outcomes."""
        self._reached.add(id(node))
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
            self._rule_raise(node, st.locs)
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
            self._skipped.append(node.orelse if cond else node.body)
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
        handlers = [(self._handler_names(h), h) for h in node.handlers]
        self._skipped.append(node.handlers)
        final: List[Outcome] = []
        for out in self.run_stmts(st, node.body):
            if out[0] != "raise":
                final.append(out)
                continue
            _, state, exc = out
            handler = _match_handler(handlers, exc)
            if handler is None:
                final.append(out)
                continue
            self._reached.add(id(handler))
            if handler.name:
                state.locs[handler.name] = exc
            final.extend(self.run_stmts(state, handler.body))
        return final

    # -- assignment targets ---------------------------------------------

    def _assign(self, st: SymState, target: ast.expr, value: Term,
                node: ast.stmt) -> None:
        if isinstance(target, ast.Name):
            st.locs[target.id] = value
            return
        if isinstance(target, ast.Attribute):
            self._rule_attribute(target, st.locs)
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
            self._rule_subscript(target, st.locs)
            base = self.eval(st, target.value)
            index = self.eval(st, target.slice)
            if base in (("regs",), ("fregs",)):
                _reg_index(index, node)
                self._note(st, node)
                if base == ("regs",):
                    st.write_reg(index, value)
                else:
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
                        and value[0] in ("env", "opaque") else "?unpack")
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
            self._rule_name(node, st.locs)
            if name == "M":
                return MASK64
            return ("env", name)
        if isinstance(node, ast.Attribute):
            self._rule_attribute(node, st.locs)
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
            picked = (t_or(values) if isinstance(node.op, ast.Or)
                      else t_and(values))
            if picked not in values:
                self._rule_choice(node, values)
            return picked
        if isinstance(node, ast.Compare):
            return self._compare(st, node)
        if isinstance(node, ast.IfExp):
            test = self.eval(st, node.test)
            body = self.eval(st, node.body)
            orelse = self.eval(st, node.orelse)
            if not is_concrete(test):
                self._rule_choice(node, (body, orelse))
            return t_ifexp(test, body, orelse)
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
            return st.read_reg(_reg_index(index, node))
        if base == ("fregs",):
            return st.read_freg(_reg_index(index, node))
        if isinstance(base, tuple) and base[:1] == ("tuple",):
            if isinstance(index, int) and not isinstance(index, bool):
                items = base[1:]
                return items[index]
            self._rule_choice(node, base[1:])
            return fresh_opaque("?tuple[]")
        if base == ("env", "SINK") and index == 0:
            return ("sinkfn",)
        if isinstance(base, tuple) and base[0] in ("env", "opaque"):
            suffix = f"[{index}]" if isinstance(index, int) else "[]"
            return fresh_opaque(f"{base[1]}{suffix}")
        return fresh_opaque("?item")

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
        self._rule_call(node, st.locs)
        if isinstance(func, ast.Name) and func.id not in st.locs:
            name = func.id
            if name in _LD_HELPERS or name in _ST_HELPERS:
                self._note(st, node)
                args = [self.eval(st, arg) for arg in node.args]
                if len(args) != (1 if name in _LD_HELPERS else 2):
                    raise ProtocolError(
                        f"{name}() arity at line {node.lineno}")
                if name in _ST_HELPERS:
                    self._faults.append(
                        st.mem_write(_ST_HELPERS[name], *args))
                    return None
                value, fork = st.mem_read(_LD_HELPERS[name], args[0])
                self._faults.append(fork)
                return value
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


def _havoc_iteration(st: SymState) -> None:
    """Forget everything one loop iteration may have changed."""
    st.havoc_registers()
    st.stores.clear()
    st.events.clear()
    st.conds.clear()
    st.nmem = 0


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

    def summary(self, st: SymState, kind: str,
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
        _havoc_iteration(st)
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
            out.append(self.summary(fst, "raise", exc=fexc))
        for es, eexc in exits:
            if eexc is None:
                out.append(self.summary(es, "return", executed=length))
            else:
                out.append(self.summary(es, "raise", exc=eexc))
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
            out.append(self.summary(fst, "raise", exc=fexc))
        cond = branch_cond(st, self.instrs[-1])
        fall = (pc0 + length * 4) & MASK64
        n1 = t_add(n0, length)

        def taken(s: SymState) -> None:
            # budget check: another full iteration must fit
            bc = t_cmp("le", t_add(n1, length), ("sym", "budget"))
            back = s.clone()
            back.conds.append((bc, True))
            back.locs["n"] = n1
            out.append(self.summary(back, "backedge"))
            s.conds.append((bc, False))
            s.write_attr("pc", pc0)
            out.append(self.summary(s, "return", executed=n1))

        def fell(s: SymState) -> None:
            s.write_attr("pc", fall)
            out.append(self.summary(s, "return", executed=n1))

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
        _havoc_iteration(st)
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

    def _chain_exit(self, out: List[ExitSummary], s: SymState,
                    base_cur: Term, d_cur: Optional[Term], length: int,
                    exc: Optional[Term] = None) -> None:
        """Leave the chain: rewind ``icount``, count the dispatches and,
        on a raise, fold chain progress into ``block_progress``."""
        if exc is not None:
            s.write_attr("block_progress",
                         t_add(base_cur, s.read_attr("block_progress")))
        if self.track_icount:
            s.write_attr("icount",
                         t_sub(s.read_attr("icount"), base_cur))
        s.write_vs("block_dispatches",
                   t_add(s.read_vs("block_dispatches"),
                         self._dispatch_delta(base_cur, d_cur,
                                              length)))
        if exc is not None:
            out.append(self.summary(s, "raise", exc=exc))
        else:
            out.append(self.summary(s, "return",
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
                    self._chain_exit(out, fst, base_cur, d_cur, length,
                                     fexc)
                for es, eexc in exits:
                    if eexc is not None:
                        self._chain_exit(out, es, base_cur, d_cur,
                                         length, eexc)
                        continue
                    if k + 1 < nfrags:
                        succ: Optional[int] = self.frags[k + 1][0]
                    elif self.loop_back:
                        succ = self.head
                    else:
                        succ = None
                    if succ is None:
                        self._chain_exit(out, es, base_cur, d_cur,
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
                        self._chain_exit(out, es, base_cur, d_cur,
                                         length)
                        continue
                    if guard is not False:
                        exit_st = es.clone()
                        exit_st.conds.append((guard, True))
                        self._chain_exit(out, exit_st, base_cur,
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
            out.append(self.summary(s, "backedge"))
        return out


# ----------------------------------------------------------------------
# public verification entry points

def _run_verify(source: str, kind: Any,
                env: Collection[str]) -> List[ExitDiff]:
    try:
        actual = _Exec(source, kind, frozenset(env)).run()
        expected = kind.expected()
    except SyntaxError as exc:
        return [ExitDiff(f"not parseable: {exc}")]
    except ProtocolError as exc:
        return [ExitDiff(f"protocol violation: {exc}")]
    except RecursionError:
        return [ExitDiff("protocol violation: AST too deep")]
    return compare_exits(actual, expected)


def verify_block_source(source: str, pc0: int,
                        instrs: Sequence[Instr], flavor: str,
                        env_names: Collection[str]) -> List[ExitDiff]:
    """Prove one translated ``flavor`` superblock equivalent to its
    decoded instructions and safe against ``env_names``, the globals it
    runs with; returns the (possibly empty) diffs."""
    return _run_verify(source, _BlockKind(pc0, instrs, flavor), env_names)


def verify_inline_chain(source: str,
                        frags: Sequence[Tuple[int, Sequence[Instr]]],
                        loop_back: bool,
                        env_names: Collection[str]) -> List[ExitDiff]:
    """Prove an inline (spliced-body) megablock chain."""
    return _run_verify(source, _InlineChainKind(frags, loop_back),
                       env_names)


# ----------------------------------------------------------------------
# what the translate-time gate saw: capture for the corpus driver

#: gate flavour -> verify-codegen tier
_TIERS: Dict[str, str] = {"fast": "fast", "event": "event",
                         "timed": "fused-timed", "warm": "fused-warm",
                         "mega": "mega-inline"}


@dataclass(frozen=True)
class Captured:
    """One generated source as the translate-time gate saw it, with
    what the corpus driver needs to re-prove it offline and the gate's
    own diffs (``None`` when the gate was switched off)."""

    flavor: str        # "fast" | "event" | "timed" | "warm" | "mega"
    source: str
    pc0: int
    env_names: FrozenSet[str]
    instrs: Tuple[Instr, ...] = ()
    frags: Tuple[Tuple[int, Tuple[Instr, ...]], ...] = ()
    loop_back: bool = False
    diffs: Optional[Tuple[ExitDiff, ...]] = None

    @property
    def tier(self) -> str:
        return _TIERS[self.flavor]

    @property
    def label(self) -> str:
        return f"{self.tier}@{self.pc0:#x}"

    def verify(self) -> List[ExitDiff]:
        if self.flavor == "mega":
            return verify_inline_chain(self.source, self.frags,
                                       self.loop_back, self.env_names)
        return verify_block_source(self.source, self.pc0, self.instrs,
                                   self.flavor, self.env_names)


_CAPTURE: Optional[List[Captured]] = None


@contextmanager
def capture() -> Iterator[List[Captured]]:
    """Collect every source the gate sees (the corpus driver);
    nested captures shadow outer ones."""
    global _CAPTURE
    prev, _CAPTURE = _CAPTURE, []
    try:
        yield _CAPTURE
    finally:
        _CAPTURE = prev


def record(item: Captured) -> None:
    """Hand one gated source to the open :func:`capture`, if any."""
    if _CAPTURE is not None:
        _CAPTURE.append(item)
