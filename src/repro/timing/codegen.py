"""Fused-flavour code generators: the hot-path timing engine.

The slow path delivers one ``sink.on_inst(...)`` call per retired
instruction (``FLAVOR_EVENT``); :class:`~repro.timing.core.OutOfOrderCore`
then re-derives everything static about the instruction — event fields,
operation latency, functional-unit kind, fetch-line membership — on
every call.  The fast path moves that work to translation time: for each
superblock the :class:`~repro.vm.translator.Translator` asks a codegen
object here for specialised Python source that updates the timing model
*inline*, with all static facts (from :mod:`repro.timing.blockplan`)
folded into the generated code as constants and the model's scalar state
hoisted into locals for the duration of the block.

Two codegens exist, mirroring the two event-mode sinks:

* :class:`TimedBlockCodegen` — the full fetch/dispatch/issue/execute/
  retire recurrence of ``OutOfOrderCore.on_inst``, plus inlined
  cache/TLB probes and the gshare/BTB/RAS front end.
* :class:`WarmingBlockCodegen` — the state-update subset of
  :class:`~repro.timing.warming.FunctionalWarmingSink`: cache, TLB and
  predictor updates only, no pipeline arithmetic.

The emitted code leans on properties of the slow-path recurrence that
hold between any two ``on_inst`` calls:

* ``_prev_fetch``/``_prev_dispatch``/``_prev_retire`` always equal the
  newest entry of the matching bandwidth ring (``on_inst`` writes both
  from the same value), so no separate "prev" locals are carried.
* Bandwidth rings (width = fetch/issue/retire width) are held in
  rotating locals whose *roles* rotate at translation time — advancing
  the ring is a single store into the oldest name, and the epilogue
  writes the names back in cyclic order (position 0 = oldest).
* Ring cycle values are monotone, so ``ring[pos] + 1 > c`` can be
  tested as ``ring[pos] >= c``.
* The fetch-queue/ROB/load/store occupancy rings advance one slot per
  (matching) instruction, so for blocks no longer than the ring the
  slot of every access is *static* relative to the entry position and
  the pointer advances once per block, in the epilogue.  Reads use
  Python's negative indexing to fold the wrap-around
  (``ring[pos + k - size]`` is ``ring[(pos + k) % size]`` whenever
  ``pos + k < 2 * size``).

Equivalence contract: for any instruction stream, executing the fused
block must leave the timing model in *bit-identical* state to feeding
the same events through the slow-path sink.  Every emitter below is a
transliteration of the corresponding slow-path method; the parity
test-suite holds the two paths to that contract, and
``REPRO_SLOW_PATH=1`` disables this module entirely so the oracle stays
available in production.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence

from repro.isa import OpClass, registers

from .blockplan import BlockPlan, plan_block

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.isa import Instr

    from .core import OutOfOrderCore
    from .warming import FunctionalWarmingSink

_LOAD = int(OpClass.LOAD)
_STORE = int(OpClass.STORE)
_BRANCH = int(OpClass.BRANCH)
_JUMP = int(OpClass.JUMP)
_SYSTEM = int(OpClass.SYSTEM)
_FP = frozenset((int(OpClass.FP_ADD), int(OpClass.FP_MUL),
                 int(OpClass.FP_DIV), int(OpClass.FP_CVT)))
_RA = registers.RA

__all__ = ["TimedBlockCodegen", "WarmingBlockCodegen"]


class _Ring:
    """A width-N bandwidth ring held in role-rotating locals.

    At instruction ``idx`` the oldest entry lives in ``names[idx % w]``
    and the newest in ``names[(idx - 1) % w]``; storing the new cycle
    into the oldest name advances the ring without moving any values.
    """

    def __init__(self, prefix: str, width: int) -> None:
        self.width = width
        self.names = [f"{prefix}{i}" for i in range(width)]

    def oldest(self, idx: int) -> str:
        return self.names[idx % self.width]

    def newest(self, idx: int) -> str:
        return self.names[(idx + self.width - 1) % self.width]

    def perm(self, count: int) -> List[str]:
        """Names in oldest-to-newest order after ``count`` advances."""
        w = self.width
        return [self.names[(count + k) % w] for k in range(w)]


class _ModelConsts:
    """Constants folded into generated source, shared by both flavours."""

    def __init__(self, core: "OutOfOrderCore") -> None:
        cfg = core.config
        h = core.hierarchy
        self.core = core
        self.config = cfg
        self.line_shift = cfg.l1i.line_size.bit_length() - 1
        self.l1i_hit = cfg.l1i.hit_latency
        self.l1d_hit = cfg.l1d.hit_latency
        self.page_shift = h.itlb.page_shift
        self.itlb_mask = h.itlb.set_mask
        self.itlb_assoc = h.itlb.assoc
        self.dtlb_mask = h.dtlb.set_mask
        self.dtlb_assoc = h.dtlb.assoc
        self.l1i_off = h.l1i.offset_bits
        self.l1i_mask = h.l1i.set_mask
        self.l1i_assoc = h.l1i.assoc
        self.l1d_off = h.l1d.offset_bits
        self.l1d_mask = h.l1d.set_mask
        self.l1d_assoc = h.l1d.assoc
        self.gmask = core.branch.gshare.mask
        self.btb_mask = core.branch.btb.mask
        self.ras_entries = core.branch.ras.entries
        self.mp = cfg.branch_mispredict_penalty
        self.latencies = dict(cfg.latencies)
        self.unpipelined = frozenset(cfg.unpipelined)

    def shared_env(self) -> dict:
        core = self.core
        h = core.hierarchy
        cfg = self.config
        l2tlb_access = h.l2tlb.access
        l2tlb_hit = cfg.l2_tlb_latency
        l2tlb_miss = cfg.l2_tlb_latency + cfg.tlb_walk_latency
        l2_access = h.l2.access
        l2_hit = cfg.l2.hit_latency
        l2_miss = cfg.l2.hit_latency + cfg.memory_latency

        def _tlb2(addr: int) -> int:
            # second-level TLB path of MemoryHierarchy._tlb_latency
            if l2tlb_access(addr):
                return l2tlb_hit
            return l2tlb_miss

        def _l2c(addr: int) -> int:
            # unified-L2 path shared by fetch_latency/load_latency
            if l2_access(addr):
                return l2_hit
            return l2_miss

        return {
            "GSH": core.branch.gshare, "GT": core.branch.gshare.table,
            "BTT": core.branch.btb.tags, "BTG": core.branch.btb.targets,
            "BRU": core.branch, "RAS": core.branch.ras,
            "RASS": core.branch.ras.stack,
            "ITLB": h.itlb, "DTLB": h.dtlb, "L1I": h.l1i, "L1D": h.l1d,
            "ITLBW": h.itlb.sets, "DTLBW": h.dtlb.sets,
            "L1IW": h.l1i.sets, "L1DW": h.l1d.sets,
            "TLB2": _tlb2, "L2C": _l2c,
        }


class _BlockEmitter:
    """Emits the fused timing source for one decoded block."""

    def __init__(self, consts: _ModelConsts, pc0: int,
                 instrs: Sequence["Instr"], timed: bool) -> None:
        self.c = consts
        self.pc0 = pc0
        self.timed = timed
        self.plan: BlockPlan = plan_block(pc0, instrs, consts.config)
        cls = self.plan.cls
        self.length = len(cls)
        self.has_load = _LOAD in cls
        self.has_store = _STORE in cls
        self.has_branch = _BRANCH in cls
        self.has_jump = _JUMP in cls
        # only memory semantics can fault after the block entered: every
        # other exit (traps included) retires a statically known count
        self.faultable = self.has_load or self.has_store
        self.fu_groups: set = set()
        for value in cls:
            if value in (_LOAD, _STORE):
                self.fu_groups.add("m")
            elif value in _FP:
                self.fu_groups.add("f")
            else:
                self.fu_groups.add("i")
        # running load/store counts before each instruction (index n is
        # the block total) — the static slot offsets of the buffers
        self.pre_ld = [0]
        self.pre_st = [0]
        for value in cls:
            self.pre_ld.append(self.pre_ld[-1] + (value == _LOAD))
            self.pre_st.append(self.pre_st[-1] + (value == _STORE))
        if timed:
            core = consts.core
            self.fring = _Ring("_f", len(core._fetch_ring))
            self.dring = _Ring("_d", len(core._disp_ring))
            self.rring = _Ring("_r", len(core._ret_ring))
            self.fqn = len(core._fq_ring)
            self.robn = len(core._rob_ring)
            self.ldn = len(core._ld_ring)
            self.stn = len(core._st_ring)
            self.iun = len(core._fu_by_class[int(OpClass.INT_ALU)])
            self.mun = len(core._fu_by_class[_LOAD])
            self.fun = len(core._fu_by_class[int(OpClass.FP_ADD)])
            # static slot addressing only fits while the block cannot lap
            # the ring; longer blocks keep the slow path's moving pointer
            self.fq_static = self.length <= self.fqn
            self.rob_static = self.length <= self.robn
            self.ld_static = self.pre_ld[-1] <= self.ldn
            self.st_static = self.pre_st[-1] <= self.stn

    def _idx(self, pc: int) -> int:
        return (pc - self.pc0) >> 2

    # -- static ring-slot index expressions ----------------------------

    def _fqi(self, idx: int) -> str:
        return f"_fqp - {self.fqn - idx}" if self.fq_static else "_fqp"

    def _robi(self, idx: int) -> str:
        return (f"_robp - {self.robn - idx}" if self.rob_static
                else "_robp")

    def _ldi(self, idx: int) -> str:
        return (f"_ldp - {self.ldn - self.pre_ld[idx]}"
                if self.ld_static else "_ldp")

    def _sti(self, idx: int) -> str:
        return (f"_stp - {self.stn - self.pre_st[idx]}"
                if self.st_static else "_stp")

    # ------------------------------------------------------------------
    # shared structure emitters (exact transliterations of the slow path)

    def _ifetch(self, pc: int) -> List[str]:
        """Inline ``MemoryHierarchy.fetch_latency`` for a static pc.

        Timed: leaves ``_pen = fetch_latency(pc) - l1i_hit_latency`` and
        charges it; warming: performs the same accesses, discards the
        latency.
        """
        c = self.c
        vpn = pc >> c.page_shift
        iset = vpn & c.itlb_mask
        itag = pc >> c.l1i_off
        icset = itag & c.l1i_mask
        timed = self.timed
        out = [
            f"_w = ITLBW[{iset}]",
            f"if {vpn} in _w:",
            f"    if _w[0] != {vpn}:",
            f"        _w.remove({vpn})",
            f"        _w.insert(0, {vpn})",
            "    ITLB.hits += 1",
        ]
        if timed:
            out.append("    _pen = 0")
        out += [
            "else:",
            "    ITLB.misses += 1",
            f"    _w.insert(0, {vpn})",
            f"    if len(_w) > {c.itlb_assoc}:",
            "        _w.pop()",
            (f"    _pen = TLB2({pc})" if timed else f"    TLB2({pc})"),
            f"_w = L1IW[{icset}]",
            f"if {itag} in _w:",
            f"    if _w[0] != {itag}:",
            f"        _w.remove({itag})",
            f"        _w.insert(0, {itag})",
            "    L1I.hits += 1",
            "else:",
            "    L1I.misses += 1",
            f"    _w.insert(0, {itag})",
            f"    if len(_w) > {c.l1i_assoc}:",
            "        _w.pop()",
            (f"    _pen = _pen + L2C({pc}) - {c.l1i_hit}"
             if timed else f"    L2C({pc})"),
        ]
        if timed:
            out += ["if _pen:",
                    "    _fc = _fc + _pen"]
        return out

    def _line_code(self, idx: int) -> List[str]:
        """Fetch-line tracking: runtime check for the block's first
        instruction, statically folded for the rest."""
        plan = self.plan
        if not plan.newline[idx]:
            return []
        line = plan.lines[idx]
        pc = plan.pcs[idx]
        body = self._ifetch(pc)
        if idx == 0:
            out = [f"if {line} != _ll:",
                   f"    _ll = {line}"]
            out += ["    " + text for text in body]
            return out
        return [f"_ll = {line}"] + body

    def _daccess(self, want_lat: bool) -> List[str]:
        """Inline ``load_latency``/``store_latency`` for a dynamic ``ea``."""
        c = self.c
        dset = ("0" if c.dtlb_mask == 0 else f"_v & {c.dtlb_mask}")
        ccset = ("0" if c.l1d_mask == 0 else f"_t1 & {c.l1d_mask}")
        out = [
            f"_v = ea >> {c.page_shift}",
            f"_w = DTLBW[{dset}]",
            "if _v in _w:",
            "    if _w[0] != _v:",
            "        _w.remove(_v)",
            "        _w.insert(0, _v)",
            "    DTLB.hits += 1",
        ]
        if want_lat:
            out.append("    _lat = 0")
        out += [
            "else:",
            "    DTLB.misses += 1",
            "    _w.insert(0, _v)",
            f"    if len(_w) > {c.dtlb_assoc}:",
            "        _w.pop()",
            ("    _lat = TLB2(ea)" if want_lat else "    TLB2(ea)"),
            f"_t1 = ea >> {c.l1d_off}",
            f"_w = L1DW[{ccset}]",
            "if _t1 in _w:",
            "    if _w[0] != _t1:",
            "        _w.remove(_t1)",
            "        _w.insert(0, _t1)",
            "    L1D.hits += 1",
        ]
        if want_lat:
            out.append(f"    _lat = _lat + {c.l1d_hit}")
        out += [
            "else:",
            "    L1D.misses += 1",
            "    _w.insert(0, _t1)",
            f"    if len(_w) > {c.l1d_assoc}:",
            "        _w.pop()",
            ("    _lat = _lat + L2C(ea)" if want_lat else "    L2C(ea)"),
        ]
        return out

    def _gshare_update(self, pc: int, taken: bool) -> List[str]:
        """Inline ``GsharePredictor.predict`` + ``update`` (taken is a
        translation-time constant — each branch arm gets its own copy)."""
        c = self.c
        out = [f"_gi = ({pc >> 2} ^ _gh) & {c.gmask}",
               "_c1 = _gt[_gi]"]
        if taken:
            out += ["if _c1 < 3:",
                    "    _gt[_gi] = _c1 + 1",
                    f"_gh = ((_gh << 1) | 1) & {c.gmask}"]
        else:
            out += ["if _c1 > 0:",
                    "    _gt[_gi] = _c1 - 1",
                    f"_gh = (_gh << 1) & {c.gmask}"]
        return out

    def _redirect(self) -> List[str]:
        """Mispredict redirect (timed only): the slow path's
        ``complete_c + penalty`` stream bump."""
        return ["    _brm = _brm + 1",
                f"    _t1 = _cc + {self.c.mp}",
                "    if _t1 > _sc:",
                "        _sc = _t1"]

    def branch_arm(self, pc: int, instr: "Instr", taken: bool,
                   target: str) -> List[str]:
        """Inline ``BranchUnit.predict_branch`` with the outcome folded."""
        c = self.c
        out = ["_brb = _brb + 1"]
        out += self._gshare_update(pc, taken)
        if taken:
            bi = (pc >> 2) & c.btb_mask
            out += [
                "_ok = _c1 >= 2",
                f"if BTT[{bi}] == {pc}:",
                f"    _t1 = BTG[{bi}]",
                "else:",
                "    _t1 = -1",
                f"if _t1 != {target}:",
                "    _brbm = _brbm + 1",
                "    _ok = False",
                f"    BTT[{bi}] = {pc}",
                f"    BTG[{bi}] = {target}",
                "if not _ok:",
            ]
            out += (self._redirect() if self.timed
                    else ["    _brm = _brm + 1"])
        else:
            # not taken: mispredicted iff the counter said taken
            out.append("if _c1 >= 2:")
            out += (self._redirect() if self.timed
                    else ["    _brm = _brm + 1"])
        return out

    def _jump_predict(self, pc: int, instr: "Instr",
                      target: str) -> List[str]:
        """Inline ``BranchUnit.predict_jump``; call/return are static."""
        c = self.c
        idx = self._idx(pc)
        dst = self.plan.dst[idx]
        src1 = self.plan.src1[idx]
        is_call = dst == _RA
        is_return = src1 == _RA and dst < 0
        rn = c.ras_entries
        out = ["_brb = _brb + 1"]
        if is_return:
            out += [
                "if _rdep == 0:",
                "    _t1 = 0",
                "else:",
                "    _t1 = RASS[_rtop]",
                f"    _rtop = (_rtop - 1) % {rn}",
                "    _rdep = _rdep - 1",
                f"_ok = _t1 == {target}",
            ]
        else:
            bi = (pc >> 2) & c.btb_mask
            out += [
                f"if BTT[{bi}] == {pc}:",
                f"    _t1 = BTG[{bi}]",
                "else:",
                "    _t1 = -1",
                f"_ok = _t1 == {target}",
                "if not _ok:",
                "    _brbm = _brbm + 1",
                f"    BTT[{bi}] = {pc}",
                f"    BTG[{bi}] = {target}",
            ]
        if is_call:
            out += [
                f"_rtop = (_rtop + 1) % {rn}",
                f"RASS[_rtop] = {pc + 4}",
                f"_rdep = _rdep + 1 if _rdep < {rn} else {rn}",
            ]
        out.append("if not _ok:")
        out += (self._redirect() if self.timed
                else ["    _brm = _brm + 1"])
        return out

    # ------------------------------------------------------------------
    # functional-unit selection (leftmost-free-unit tournament)

    def _unit_names(self, cls: int) -> List[str]:
        if cls in (_LOAD, _STORE):
            return [f"_um{i}" for i in range(self.mun)]
        if cls in _FP:
            return [f"_uf{i}" for i in range(self.fun)]
        return [f"_ui{i}" for i in range(self.iun)]

    def _unit_pick(self, cls: int, occ: str) -> List[str]:
        """Pick the earliest-free unit (first index wins ties), set
        ``_ic`` and book the unit — the slow path's linear scan with the
        winner's identity resolved by a comparison tree."""
        names = self._unit_names(cls)

        def leaf(u: str, ind: str) -> List[str]:
            return [f"{ind}_ic = _rc if _rc > {u} else {u}",
                    f"{ind}{u} = _ic + {occ}"]

        n = len(names)
        if n == 1:
            return leaf(names[0], "")
        if n == 2:
            a, b = names
            return ([f"if {a} <= {b}:"] + leaf(a, "    ")
                    + ["else:"] + leaf(b, "    "))
        if n == 3:
            a, b, c3 = names
            return ([f"if {a} <= {b}:",
                     f"    if {a} <= {c3}:"] + leaf(a, "        ")
                    + ["    else:"] + leaf(c3, "        ")
                    + ["else:",
                       f"    if {b} <= {c3}:"] + leaf(b, "        ")
                    + ["    else:"] + leaf(c3, "        "))
        if n == 4:
            a, b, c3, d = names
            out = []
            for first, cond in ((a, f"if {a} <= {b}:"),
                                (b, "else:")):
                out.append(cond)
                out.append(f"    if {c3} <= {d}:")
                out.append(f"        if {first} <= {c3}:")
                out += leaf(first, "            ")
                out.append("        else:")
                out += leaf(c3, "            ")
                out.append("    else:")
                out.append(f"        if {first} <= {d}:")
                out += leaf(first, "            ")
                out.append("        else:")
                out += leaf(d, "            ")
            return out
        # many units: fall back to the slow path's linear scan
        out = [f"_t1 = {names[0]}", "_bi = 0"]
        for index in range(1, n):
            out += [f"if {names[index]} < _t1:",
                    f"    _t1 = {names[index]}",
                    f"    _bi = {index}"]
        out.append("_ic = _rc if _rc > _t1 else _t1")
        out.append("if _bi == 0:")
        out.append(f"    {names[0]} = _ic + {occ}")
        for index in range(1, n):
            out.append(f"elif _bi == {index}:")
            out.append(f"    {names[index]} = _ic + {occ}")
        return out

    # ------------------------------------------------------------------
    # timed pipeline stages (transliteration of OutOfOrderCore.on_inst)

    def _stages(self, idx: int) -> List[str]:
        c = self.c
        plan = self.plan
        cls = plan.cls[idx]
        f_old, f_new = self.fring.oldest(idx), self.fring.newest(idx)
        d_old, d_new = self.dring.oldest(idx), self.dring.newest(idx)
        r_old, r_new = self.rring.oldest(idx), self.rring.newest(idx)
        fqi = self._fqi(idx)
        robi = self._robi(idx)
        out: List[str] = []
        # ---- FETCH ---------------------------------------------------
        # prev_fetch is the newest ring entry; cycles are monotone so
        # the bandwidth limit "oldest + 1 > c" is "oldest >= c"
        out += [f"_fc = {f_new} if {f_new} > _sc else _sc",
                f"if {f_old} >= _fc:",
                f"    _fc = {f_old} + 1"]
        out += self._line_code(idx)
        out += [f"if _fq[{fqi}] > _fc:",
                f"    _fc = _fq[{fqi}]",
                f"{f_old} = _fc"]
        # ---- DISPATCH ------------------------------------------------
        out += ["_dc = _fc + 1",
                f"if {d_new} > _dc:",
                f"    _dc = {d_new}",
                f"if {d_old} >= _dc:",
                f"    _dc = {d_old} + 1",
                f"if _rob[{robi}] > _dc:",
                f"    _dc = _rob[{robi}]"]
        if cls == _LOAD:
            ldi = self._ldi(idx)
            out += [f"if _ldb[{ldi}] > _dc:",
                    f"    _dc = _ldb[{ldi}]"]
        elif cls == _STORE:
            sti = self._sti(idx)
            out += [f"if _stb[{sti}] > _dc:",
                    f"    _dc = _stb[{sti}]"]
        out += [f"{d_old} = _dc",
                f"_fq[{fqi}] = _dc"]
        if not self.fq_static:
            out += ["_fqp = _fqp + 1",
                    f"if _fqp == {self.fqn}:",
                    "    _fqp = 0"]
        # ---- ISSUE ---------------------------------------------------
        out.append("_rc = _dc + 1")
        for src in (plan.src1[idx], plan.src2[idx]):
            if src >= 0:
                out += [f"if _rr[{src}] > _rc:",
                        f"    _rc = _rr[{src}]"]
        # the memory probe only touches cache state and ``_lat``, so it
        # commutes with the (read-compare) unit pick that follows
        if cls == _LOAD:
            out += self._daccess(want_lat=True)
            occ = "_lat" if cls in c.unpipelined else "1"
            complete = "_cc = _ic + _lat"
        elif cls == _STORE:
            out += self._daccess(want_lat=False)
            occ = "1"  # on_inst uses its dynamic latency (1), not the table
            complete = "_cc = _ic + 1"
        else:
            occ = str(plan.occ[idx])
            complete = f"_cc = _ic + {plan.lat[idx]}"
        out += self._unit_pick(cls, occ)
        # ---- EXECUTE -------------------------------------------------
        out.append(complete)
        if plan.dst[idx] >= 0:
            out.append(f"_rr[{plan.dst[idx]}] = _cc")
        # ---- RETIRE --------------------------------------------------
        out += ["_tc = _cc + 1",
                f"if {r_new} > _tc:",
                f"    _tc = {r_new}",
                f"if {r_old} >= _tc:",
                f"    _tc = {r_old} + 1",
                f"{r_old} = _tc",
                f"_rob[{robi}] = _tc"]
        if not self.rob_static:
            out += ["_robp = _robp + 1",
                    f"if _robp == {self.robn}:",
                    "    _robp = 0"]
        if cls == _LOAD:
            out.append(f"_ldb[{ldi}] = _tc")
            if not self.ld_static:
                out += ["_ldp = _ldp + 1",
                        f"if _ldp == {self.ldn}:",
                        "    _ldp = 0"]
        elif cls == _STORE:
            out.append(f"_stb[{sti}] = _tc + 1")
            if not self.st_static:
                out += ["_stp = _stp + 1",
                        f"if _stp == {self.stn}:",
                        "    _stp = 0"]
        return out

    # ------------------------------------------------------------------
    # the translator-facing hooks

    def prologue(self, length: int) -> List[str]:
        out = [f"_n = {length}",
               "_flt = None"]
        if self.timed:
            out += ["_sc, _ll, _tc, _fqp, _robp = CORE._stream_cycle, "
                    "CORE._last_line, CORE.last_retire_cycle, "
                    "CORE._fq_pos, CORE._rob_pos",
                    "_rr, _fq, _rob = REGR, FQ, ROB"]
            # unpack the bandwidth rings oldest-to-newest in one shot;
            # negative indices fold the wrap (pos - k is (pos - k) % w)
            loads, names = [], []
            for ring, attr, pos, alias in (
                    (self.fring, "_fetch_ring", "_fetch_pos", "_t1"),
                    (self.dring, "_disp_ring", "_disp_pos", "_t3"),
                    (self.rring, "_ret_ring", "_ret_pos", "_t5")):
                palias = alias.replace("t", "p")
                loads.append((f"{alias}, {palias}",
                              f"CORE.{attr}, CORE.{pos}"))
                w = ring.width
                for k, name in enumerate(ring.names):
                    names.append((name,
                                  f"{alias}[{palias}]" if k == 0
                                  else f"{alias}[{palias} - {w - k}]"))
            out.append(", ".join(t for t, _ in loads) + " = "
                       + ", ".join(v for _, v in loads))
            out.append(", ".join(n for n, _ in names) + " = "
                       + ", ".join(v for _, v in names))
            if self.has_load:
                out.append("_ldb, _ldp = LDB, CORE._ld_pos")
            if self.has_store:
                out.append("_stb, _stp = STB, CORE._st_pos")
            if "i" in self.fu_groups:
                out.append(", ".join(f"_ui{i}" for i in range(self.iun))
                           + (" = FUI" if self.iun > 1 else " = FUI[0]"))
            if "m" in self.fu_groups:
                out.append(", ".join(f"_um{i}" for i in range(self.mun))
                           + (" = FUM" if self.mun > 1 else " = FUM[0]"))
            if "f" in self.fu_groups:
                out.append(", ".join(f"_uf{i}" for i in range(self.fun))
                           + (" = FUF" if self.fun > 1 else " = FUF[0]"))
        else:
            out.append("_ll = WS._last_line")
        if self.has_branch or self.has_jump:
            out.append("_gh, _brb, _brm, _brbm = GSH.history, "
                       "BRU.branches, BRU.mispredicts, BRU.btb_misses")
        if self.has_branch:
            out.append("_gt = GT")
        if self.has_jump:
            out.append("_rtop, _rdep = RAS.top, RAS.depth")
        return out

    def _ring_writeback(self) -> List[str]:
        """Write the rotating locals back, oldest first, position 0.

        Fault-free blocks always retire ``length`` instructions, so the
        cyclic role of every name is static; blocks with memory ops
        switch on ``_n % width`` (the rotation count always equals the
        retired count, on every exit path)."""
        rings = [(self.fring, "_fetch_ring", "_fetch_pos", "_t1"),
                 (self.dring, "_disp_ring", "_disp_pos", "_t3"),
                 (self.rring, "_ret_ring", "_ret_pos", "_t5")]
        out = [", ".join(alias for _, _, _, alias in rings) + " = "
               + ", ".join(f"CORE.{attr}" for _, attr, _, _ in rings)]

        def assign(group: list, count: int) -> str:
            targets, values = [], []
            for ring, _attr, _pos, alias in group:
                perm = ring.perm(count)
                targets += [f"{alias}[{j}]" for j in range(ring.width)]
                values += perm
            return ", ".join(targets) + " = " + ", ".join(values)

        if not self.faultable:
            by_width = {}
            for item in rings:
                by_width.setdefault(item[0].width, []).append(item)
            for width, group in by_width.items():
                out.append(assign(group, self.length % width))
        else:
            by_width = {}
            for item in rings:
                by_width.setdefault(item[0].width, []).append(item)
            for width, group in by_width.items():
                if width == 1:
                    out.append(assign(group, 0))
                    continue
                out.append(f"_t2 = _n % {width}")
                for rem in range(width):
                    head = "if" if rem == 0 else "elif"
                    cond = (f"{head} _t2 == {rem}:" if rem < width - 1
                            else "else:")
                    out.append(cond)
                    out.append("    " + assign(group, rem))
        out.append(" = ".join(f"CORE.{pos}" for _, _, pos, _ in rings)
                   + " = 0")
        # prev_* mirror the newest ring entries (slow-path invariant)
        out.append(f"CORE._prev_fetch, CORE._prev_dispatch, "
                   f"CORE._prev_retire = _t1[{self.fring.width - 1}], "
                   f"_t3[{self.dring.width - 1}], "
                   f"_t5[{self.rring.width - 1}]")
        return out

    def _advance(self, name: str, size: int, static_flag: bool,
                 total: int,
                 prefix: Optional[Sequence[int]]) -> List[str]:
        """Epilogue pointer advance for a statically-addressed ring."""
        if not static_flag:
            return []          # the stage code moved the pointer itself
        if not self.faultable:
            step = str(total)
        elif prefix is None:
            step = "_n"
        else:
            step = f"{tuple(prefix)}[_n]"
        return [f"{name} = {name} + {step}",
                f"if {name} >= {size}:",
                f"    {name} = {name} - {size}"]

    def epilogue(self, retire: str = "_n") -> List[str]:
        """Write-back lines; ``retire`` is the retired-count expression
        credited to the model's instruction counters (megablock chains
        pass the chain-cumulative ``_base + _n``)."""
        out: List[str] = []
        if self.timed:
            n = self.length
            out += self._advance("_fqp", self.fqn, self.fq_static, n,
                                 None)
            out += self._advance("_robp", self.robn, self.rob_static, n,
                                 None)
            out += ["CORE._stream_cycle, CORE._last_line, "
                    "CORE.last_retire_cycle, CORE._fq_pos, "
                    "CORE._rob_pos, CORE.retired = "
                    "_sc, _ll, _tc, _fqp, _robp, "
                    f"CORE.retired + {retire}"]
            out += self._ring_writeback()
            if self.has_load:
                out += self._advance("_ldp", self.ldn, self.ld_static,
                                     self.pre_ld[-1],
                                     self.pre_ld if self.faultable
                                     else None)
                out.append("CORE._ld_pos = _ldp")
            if self.has_store:
                out += self._advance("_stp", self.stn, self.st_static,
                                     self.pre_st[-1],
                                     self.pre_st if self.faultable
                                     else None)
                out.append("CORE._st_pos = _stp")
            if "i" in self.fu_groups:
                out.append(", ".join(f"FUI[{i}]"
                                     for i in range(self.iun)) + " = "
                           + ", ".join(f"_ui{i}"
                                       for i in range(self.iun)))
            if "m" in self.fu_groups:
                out.append(", ".join(f"FUM[{i}]"
                                     for i in range(self.mun)) + " = "
                           + ", ".join(f"_um{i}"
                                       for i in range(self.mun)))
            if "f" in self.fu_groups:
                out.append(", ".join(f"FUF[{i}]"
                                     for i in range(self.fun)) + " = "
                           + ", ".join(f"_uf{i}"
                                       for i in range(self.fun)))
        else:
            out.append("WS._last_line, WS.instructions = "
                       f"_ll, WS.instructions + {retire}")
        if self.has_branch or self.has_jump:
            out.append("GSH.history, BRU.branches, BRU.mispredicts, "
                       "BRU.btb_misses = _gh, _brb, _brm, _brbm")
        if self.has_jump:
            out.append("RAS.top, RAS.depth = _rtop, _rdep")
        return out

    def instr(self, pc: int, instr: "Instr") -> List[str]:
        """Timing for one non-control-flow body instruction."""
        idx = self._idx(pc)
        if self.timed:
            return self._stages(idx)
        out = self._line_code(idx)
        if self.plan.cls[idx] in (_LOAD, _STORE):
            out += self._daccess(want_lat=False)
        return out

    def branch_stages(self, pc: int,
                      instr: "Instr") -> List[str]:
        """Outcome-independent part of a conditional branch."""
        idx = self._idx(pc)
        if self.timed:
            return self._stages(idx)
        return self._line_code(idx)

    def jump(self, pc: int, instr: "Instr",
             target: str) -> List[str]:
        idx = self._idx(pc)
        out = self._stages(idx) if self.timed else self._line_code(idx)
        return out + self._jump_predict(pc, instr, target)

    def system(self, pc: int, instr: "Instr") -> List[str]:
        idx = self._idx(pc)
        if self.timed:
            # syscalls serialize the pipeline (stream follows retire)
            return self._stages(idx) + ["_t1 = _tc + 1",
                                        "if _t1 > _sc:",
                                        "    _sc = _t1"]
        return self._line_code(idx)


class TimedBlockCodegen:
    """Fused detailed-timing flavour for one :class:`OutOfOrderCore`."""

    #: translator flavour tag; the hot-block profiler labels blocks
    #: compiled through this codegen with the ``fused-timed`` tier
    flavor = "timed"

    def __init__(self, core: "OutOfOrderCore") -> None:
        self.core = core
        self.consts = _ModelConsts(core)
        #: host code-cache key component: the emitted source depends on
        #: nothing but the block's instructions and this configuration
        self.cache_key = ("fused-timed", repr(core.config))
        env = self.consts.shared_env()
        env.update({
            "CORE": core,
            "REGR": core.reg_ready,
            "FQ": core._fq_ring,
            "ROB": core._rob_ring,
            "LDB": core._ld_ring,
            "STB": core._st_ring,
            "FUI": core._fu_by_class[int(OpClass.INT_ALU)],
            "FUM": core._fu_by_class[_LOAD],
            "FUF": core._fu_by_class[int(OpClass.FP_ADD)],
        })
        self._env = env

    def begin(self, pc0: int,
              instrs: Sequence["Instr"]) -> _BlockEmitter:
        return _BlockEmitter(self.consts, pc0, instrs, timed=True)

    def env(self) -> dict:
        return self._env


class WarmingBlockCodegen:
    """Fused functional-warming flavour for one warming sink."""

    #: translator flavour tag; the hot-block profiler labels blocks
    #: compiled through this codegen with the ``fused-warm`` tier
    flavor = "warm"

    def __init__(self, sink: "FunctionalWarmingSink") -> None:
        self.sink = sink
        self.consts = _ModelConsts(sink.core)
        #: host code-cache key component (see TimedBlockCodegen)
        self.cache_key = ("fused-warm", repr(sink.core.config))
        env = self.consts.shared_env()
        env["WS"] = sink
        self._env = env

    def begin(self, pc0: int,
              instrs: Sequence["Instr"]) -> _BlockEmitter:
        return _BlockEmitter(self.consts, pc0, instrs,
                             timed=False)

    def env(self) -> dict:
        return self._env


# ----------------------------------------------------------------------
# megablock exit stubs (the tier above fused blocks)


def chain_exit_stub(next_pc: int, budget_test: str,
                    on_break: Sequence[str] = ()) -> List[str]:
    """Guard lines between two spliced fragments of a megablock.

    Emitted after a constituent block has retired: fall through into
    the next fragment only when the observed-successor prediction
    holds (``state.pc``), the instruction budget still has headroom
    (``budget_test`` is true once the dispatch loop's bounded-overshoot
    rule would stop), no IRQ is pending, the guest has not halted, and
    no SMC/page invalidation bumped the chain generation since this
    dispatch entered.  Any miss breaks back to the dispatch loop, which
    re-dispatches from the per-block caches — the fallback path the
    chain is bit-identical to.  ``on_break`` lines run only when the
    guard misses (bookkeeping the fall-through path must not pay;
    ``block_progress`` needs no reset here because every faulting op
    writes it before raising).
    """
    lines = [
        f"if state.pc != {next_pc} or {budget_test} "
        "or state.halted or _irq or _gen[0] != _g0:",
    ]
    lines.extend("    " + text for text in on_break)
    lines.append("    break")
    return lines
