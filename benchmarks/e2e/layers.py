"""Per-layer spans for the benchmark's traced run, recorded from outside.

:func:`traced` swaps each layer's public function (see :data:`LAYERS`)
for a timing wrapper, set on the attribute its callers look up, and puts
every original object back on exit.  Spans nest through a stack kept in
memory: a span's *self* time is its duration minus the durations of the
wrapped calls made inside it, so the self times of every span under one
root add up to the root's duration exactly.  Nothing is written until
the caller reads :attr:`Tracer.spans` and :attr:`Tracer.counters` at the
end of the run.

The program itself carries no tracing; names are the package paths of
the layers (``vm.translate``, ``sampling.controller.fast``, ...).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from typing import Callable, Dict, Iterator, List, Optional


class Tracer:
    """Span totals and counters of one traced pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        #: one cell per open span: seconds spent in its wrapped children.
        #: The bottom cell is a sentinel, so every span has a parent.
        self._stack: List[List[float]] = [[0.0]]
        #: span name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        cell = [0.0]
        self._stack.append(cell)
        start = self._clock()
        try:
            yield
        finally:
            elapsed = self._clock() - start
            self._stack.pop()
            self._stack[-1][0] += elapsed
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += elapsed
            stat[2] += elapsed - cell[0]

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` timed as span ``name``; ``observe(tracer, args, kwargs,
        result)`` then derives counters from the call."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return wrapper


def _count_mega(tracer: Tracer, args: tuple, kwargs: dict,
                result: object) -> None:
    # sanitize_block_source(source, env_names, flavor): "mega" is the
    # megablock emitter, every other flavour a block compile
    flavor = args[2] if len(args) > 2 else kwargs.get("flavor", "fast")
    if flavor == "mega":
        tracer.count("analysis.sanitize.mega_calls")


def _count_instructions(span: str) -> Callable:
    def observe(tracer: Tracer, args: tuple, kwargs: dict,
                result: object) -> None:
        # run_timed returns (instructions, cycles); the others a count
        executed = result[0] if isinstance(result, tuple) else result
        tracer.count(f"{span}.instructions", executed)
    return observe


def _count_hit(span: str) -> Callable:
    def observe(tracer: Tracer, args: tuple, kwargs: dict,
                result: object) -> None:
        if result is not None:
            tracer.count(f"{span}.hits")
    return observe


_MODES = "sampling.controller"

#: (module, owner within the module or "" for the module itself,
#: attribute, span name, observer).  A seam that no longer exists fails
#: the traced run instead of silently dropping its layer.
LAYERS = (
    ("repro.workloads", "", "load_benchmark", "workloads.build", None),
    ("repro.workloads.dsl", "Workload", "boot", "kernel.boot", None),
    ("repro.vm.translator", "Translator", "translate", "vm.translate",
     None),
    ("repro.vm.translator", "Translator", "generate_chain",
     "vm.chain.emit", None),
    ("repro.analysis.sanitizer", "", "sanitize_block_source",
     "analysis.sanitize", _count_mega),
    ("repro.sampling.controller", "SimulationController", "run_fast",
     f"{_MODES}.fast", _count_instructions(f"{_MODES}.fast")),
    ("repro.sampling.controller", "SimulationController", "run_profile",
     f"{_MODES}.profile", _count_instructions(f"{_MODES}.profile")),
    ("repro.sampling.controller", "SimulationController", "run_warming",
     f"{_MODES}.warming", _count_instructions(f"{_MODES}.warming")),
    ("repro.sampling.controller", "SimulationController", "run_timed",
     f"{_MODES}.timed", _count_instructions(f"{_MODES}.timed")),
    ("repro.sampling.controller", "SimulationController", "fast_forward",
     f"{_MODES}.fast_forward", None),
    ("repro.sampling.smp", "SmpSimulationController", "run_warming",
     f"{_MODES}.warming", _count_instructions(f"{_MODES}.warming")),
    ("repro.sampling.smp", "SmpSimulationController", "run_timed",
     f"{_MODES}.timed", _count_instructions(f"{_MODES}.timed")),
    ("repro.sampling.base", "Sampler", "run", "sampling.policy", None),
    ("repro.sampling.simpoint.simpoint", "", "choose_clustering",
     "sampling.simpoint.cluster", None),
    ("repro.exec.ckptstore", "CheckpointLadder", "load",
     "exec.ckptstore.load", _count_hit("exec.ckptstore.load")),
    ("repro.exec.ckptstore", "CheckpointLadder", "publish",
     "exec.ckptstore.publish", None),
    ("repro.exec.ckptstore", "CheckpointLadder", "load_artifact",
     "exec.ckptstore.artifact_load",
     _count_hit("exec.ckptstore.artifact_load")),
    ("repro.exec.ckptstore", "CheckpointLadder", "publish_artifact",
     "exec.ckptstore.artifact_publish", None),
    # BBV profiles are artifacts stored under their own entry points
    ("repro.exec.ckptstore", "CheckpointLadder", "load_profile",
     "exec.ckptstore.artifact_load",
     _count_hit("exec.ckptstore.artifact_load")),
    ("repro.exec.ckptstore", "CheckpointLadder", "publish_profile",
     "exec.ckptstore.artifact_publish", None),
    ("repro.exec.store", "ResultStore", "get", "exec.store.get", None),
    ("repro.exec.store", "ResultStore", "put", "exec.store.put", None),
)


def seams() -> Iterator[tuple]:
    """``(owner object, attribute)`` of every wrapped layer function."""
    for module, owner, attr, _name, _observe in LAYERS:
        target = importlib.import_module(module)
        for part in filter(None, owner.split(".")):
            target = getattr(target, part)
        yield target, attr


@contextlib.contextmanager
def traced(tracer: Tracer) -> Iterator[Tracer]:
    """Install ``tracer``'s wrappers on every seam; restore on exit."""
    patches = []
    try:
        for (target, attr), layer in zip(seams(), LAYERS):
            original = vars(target)[attr]
            patches.append((target, attr, original))
            setattr(target, attr, tracer.wrap(layer[3], original, layer[4]))
        yield tracer
    finally:
        for target, attr, original in reversed(patches):
            setattr(target, attr, original)
