"""Multi-threaded guest workloads (SMP benchmarks).

Three classic sharing patterns, written against the SMP boot convention
(:func:`repro.kernel.load_program` on an SMP guest: every hart enters at
``_start`` with its core id in ``gp`` and the core count in ``s3``):

=============== ====================================================
``pcq``         single-producer queue with per-item ready flags;
                consumer harts spin, then sum their items
``mtstencil``   row-interleaved 3-point stencil with a CAS-based
                sense-reversing barrier between sweeps
``lockcnt``     spinlock-guarded shared counter (``SYS_CAS``
                acquire), heavy lock contention
=============== ====================================================

Every program is N=1-safe — booted on a single hart, core 0 plays all
roles — and deterministic at any core count: cross-core communication
goes through shared memory under the round-robin interleaver, and every
atomic step is a ``SYS_CAS`` syscall, serialized at quantum boundaries.
Spinning harts burn real (counted) instructions, and the CAS traffic
shows up in the EXC monitored statistic — lock contention is itself a
phase signal for Dynamic Sampling.

Each benchmark runs :data:`PARALLEL_ROUNDS` page-aligned code rounds
(fresh translation-cache footprint per round — the CPU signal), sharing
one region mapped by core 0 and published through the globals table.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.kernel import GLOBALS_BASE

from .dsl import Workload, WorkloadBuilder
from .spec2000 import MIN_INTERVALS, SCALE

#: page-aligned code rounds per benchmark (phase structure)
PARALLEL_ROUNDS = 3

#: default hart count for the parallel suite
DEFAULT_PARALLEL_CORES = 2


def _target(size: str) -> int:
    """Total instruction target for one parallel benchmark."""
    return max(8 * SCALE[size], MIN_INTERVALS[size] * 250)


def _bootstrap(uid: str, nbytes: int, publish_after_init: str = "") -> str:
    """Core 0 maps ``nbytes`` of shared memory and publishes the base
    through globals slot 0; other harts spin for it.  Base lands in
    ``s0`` on every hart.  With ``publish_after_init``, that init code
    runs (on core 0, base in ``s0``) *before* the base is published, so
    late harts never observe uninitialised data."""
    return f"""
    li t6, {GLOBALS_BASE}
    bne gp, zero, {uid}_bwait
    li t0, {nbytes}
    li t7, 10
    ecall
    mv s0, t0
{publish_after_init}
    li t6, {GLOBALS_BASE}
    sd s0, 0(t6)
    j {uid}_bgo
{uid}_bwait:
    ld s0, 0(t6)
    beqz s0, {uid}_bwait
{uid}_bgo:
"""


def _pcq_round(uid: str, n_items: int, round_index: int,
               first: bool) -> Tuple[str, int]:
    """One producer/consumer round over ``n_items`` queue slots.

    Slot layout: 16 bytes per item (value, full flag).  Each slot is a
    depth-1 bounded buffer: the producer waits for the flag to clear
    (its consumer took the previous round's item) before refilling —
    without that back-pressure a fast producer overwrites unread
    items.  Consumer hart ``c`` (1-based) takes items ``c-1, c-1+m,
    ...`` over ``m = s3 - 1`` consumers; on a single hart, core 0
    consumes everything after producing.
    """
    results_off = n_items * 16
    boot = _bootstrap(uid, n_items * 16 + 4096) if first else ""
    asm = f"""
; --- pcq round {round_index}: n_items={n_items}
{boot}
    bne gp, zero, {uid}_centry
    li t1, 0
    li t2, {n_items}
    mv t3, s0
{uid}_prod:
    ld t5, 8(t3)
    bne t5, zero, {uid}_prod
    addi t4, t1, {1 + round_index}
    sd t4, 0(t3)
    li t5, 1
    sd t5, 8(t3)
    addi t3, t3, 16
    addi t1, t1, 1
    blt t1, t2, {uid}_prod
    li t1, 1
    beq s3, t1, {uid}_solo
    j {uid}_done
{uid}_centry:
    addi s1, gp, -1
    addi s2, s3, -1
    j {uid}_cons
{uid}_solo:
    li s1, 0
    li s2, 1
{uid}_cons:
    li t2, {n_items}
    li t6, 0
    mv t1, s1
{uid}_citem:
    bge t1, t2, {uid}_cdone
    slli t3, t1, 4
    add t3, s0, t3
{uid}_cspin:
    ld t4, 8(t3)
    beqz t4, {uid}_cspin
    ld t4, 0(t3)
    add t6, t6, t4
    sd zero, 8(t3)
    add t1, t1, s2
    j {uid}_citem
{uid}_cdone:
    li t3, {results_off}
    add t3, s0, t3
    slli t4, gp, 3
    add t4, t3, t4
    ld t5, 0(t4)
    add t5, t5, t6
    sd t5, 0(t4)
{uid}_done:
"""
    return asm, 20 * n_items + 24


def _barrier(uid: str) -> str:
    """CAS-based sense-reversing barrier.

    ``t4`` holds the barrier base (count at +0, sense at +8), ``s2``
    the hart's local sense; clobbers ``t0``-``t3``/``t7``.  The last
    arrival resets the count *before* flipping the sense, so the next
    barrier starts clean.
    """
    return f"""
{uid}_barr:
    ld t1, 0(t4)
    addi t2, t1, 1
    mv t0, t4
    li t7, 12
    ecall
    bne t0, t1, {uid}_barr
    bne t2, s3, {uid}_bwt
    sd zero, 0(t4)
    ld t3, 8(t4)
    xori t3, t3, 1
    sd t3, 8(t4)
    mv s2, t3
    j {uid}_bdn
{uid}_bwt:
    ld t3, 8(t4)
    beq t3, s2, {uid}_bwt
    mv s2, t3
{uid}_bdn:
"""


def _mtstencil_round(uid: str, n: int, iters: int,
                     first: bool) -> Tuple[str, int]:
    """``iters`` barrier-separated sweeps of a 3-point stencil.

    Rows are interleaved across harts (row ``gp+1``, stride ``s3`` —
    no division needed), ping-ponging between the two arrays.  The
    in/out pointers (``s0``/``s1``) and the barrier sense (``s2``)
    persist across rounds; only the first round bootstraps.
    """
    init = f"""
    li t1, 0
    li t2, {n}
    mv t3, s0
{uid}_init:
    fcvtif f1, t1
    fsd f1, 0(t3)
    addi t3, t3, 8
    addi t1, t1, 1
    blt t1, t2, {uid}_init
"""
    boot = ""
    if first:
        boot = _bootstrap(uid, 2 * n * 8 + 4096, publish_after_init=init)
        boot += f"""
    li t1, {n * 8}
    add s1, s0, t1
    li s2, 0
"""
    asm = f"""
; --- mtstencil round: n={n} iters={iters}
{boot}
    mv t4, s0
    bge s1, t4, {uid}_baddr
    mv t4, s1
{uid}_baddr:
    li t0, {2 * n * 8}
    add t4, t4, t0
    li ra, {iters}
{uid}_sweep:
    addi t5, gp, 1
    li t6, {n - 1}
{uid}_row:
    bge t5, t6, {uid}_rowdone
    slli t2, t5, 3
    add t2, s0, t2
    fld f1, -8(t2)
    fld f2, 0(t2)
    fld f3, 8(t2)
    fadd f4, f1, f2
    fadd f4, f4, f3
    sub t3, t2, s0
    add t3, s1, t3
    fsd f4, 0(t3)
    add t5, t5, s3
    j {uid}_row
{uid}_rowdone:
{_barrier(uid)}
    mv t0, s0
    mv s0, s1
    mv s1, t0
    addi ra, ra, -1
    bne ra, zero, {uid}_sweep
"""
    return asm, iters * (13 * (n - 2) + 40) + 6 * n + 20


def _lockcnt_round(uid: str, increments: int,
                   first: bool) -> Tuple[str, int]:
    """``increments`` spinlock-guarded increments of a shared counter
    per hart (lock at +0, counter at +8).  The acquire loop retries
    ``SYS_CAS`` until it observes the unlocked value — under
    contention most of each hart's instructions are CAS retries, which
    is exactly the EXC-signal texture this benchmark exists for."""
    boot = _bootstrap(uid, 4096) if first else ""
    asm = f"""
; --- lockcnt round: increments={increments}
{boot}
    li ra, {increments}
{uid}_loop:
{uid}_acq:
    mv t0, s0
    li t1, 0
    li t2, 1
    li t7, 12
    ecall
    bne t0, zero, {uid}_acq
    ld t3, 8(s0)
    addi t3, t3, 1
    sd t3, 8(s0)
    sd zero, 0(s0)
    srli t5, t3, 3
    xor t5, t5, t3
    andi t5, t5, 0xFF
    addi ra, ra, -1
    bne ra, zero, {uid}_loop
"""
    return asm, increments * 16 + 12


def _build_pcq(size: str) -> Workload:
    per_round = _target(size) // PARALLEL_ROUNDS
    n_items = max(16, per_round // 20)
    builder = WorkloadBuilder("pcq", seed=101)
    builder.parallel = True
    builder.n_cores = DEFAULT_PARALLEL_CORES
    builder.ref_input = f"{n_items}x{PARALLEL_ROUNDS}"
    for index in range(PARALLEL_ROUNDS):
        asm, estimate = _pcq_round(f"pcqr{index}", n_items, index,
                                   first=index == 0)
        builder.raw(asm, estimate=estimate, label="pcq")
    return builder.build()


def _build_mtstencil(size: str) -> Workload:
    per_round = _target(size) // PARALLEL_ROUNDS
    n = min(512, max(64, per_round // 64))
    iters = max(2, per_round // (13 * (n - 2) + 40))
    builder = WorkloadBuilder("mtstencil", seed=102)
    builder.parallel = True
    builder.n_cores = DEFAULT_PARALLEL_CORES
    builder.ref_input = f"{n}x{iters}x{PARALLEL_ROUNDS}"
    for index in range(PARALLEL_ROUNDS):
        asm, estimate = _mtstencil_round(f"mtsr{index}", n, iters,
                                         first=index == 0)
        builder.raw(asm, estimate=estimate, label="mtstencil")
    return builder.build()


def _build_lockcnt(size: str) -> Workload:
    per_round = _target(size) // PARALLEL_ROUNDS
    increments = max(8, per_round // (16 * DEFAULT_PARALLEL_CORES))
    builder = WorkloadBuilder("lockcnt", seed=103)
    builder.parallel = True
    builder.n_cores = DEFAULT_PARALLEL_CORES
    builder.ref_input = f"{increments}x{PARALLEL_ROUNDS}"
    for index in range(PARALLEL_ROUNDS):
        asm, estimate = _lockcnt_round(f"lckr{index}", increments,
                                       first=index == 0)
        builder.raw(asm, estimate=estimate, label="lockcnt")
    return builder.build()


#: one-line descriptions for ``repro list``
PARALLEL_DESCRIPTIONS: Dict[str, str] = {
    "pcq": "producer/consumer bounded queue",
    "mtstencil": "barrier-synchronized 1-D stencil",
    "lockcnt": "lock-contended shared counter",
}

#: name -> builder for the parallel suite
PARALLEL_BENCHMARKS: Dict[str, object] = {
    "pcq": _build_pcq,
    "mtstencil": _build_mtstencil,
    "lockcnt": _build_lockcnt,
}


def build_parallel(name: str, size: str = "small") -> Workload:
    """Materialise one parallel benchmark at the requested size."""
    if name not in PARALLEL_BENCHMARKS:
        raise KeyError(f"unknown parallel benchmark {name!r}; "
                       f"available: {sorted(PARALLEL_BENCHMARKS)}")
    if size not in SCALE:
        raise KeyError(f"unknown size {size!r}; choose from {list(SCALE)}")
    return PARALLEL_BENCHMARKS[name](size)
