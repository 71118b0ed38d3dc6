"""Tests of the end-to-end benchmark itself.

Not part of the tier-1 suite; run them explicitly from the repository
root with ``python -m pytest benchmarks/e2e -q``.
"""

from __future__ import annotations

import copy
import json
import sys

import pytest

import layers
import run

SRC = run.ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

#: a grid small enough for a test: two tiny cells, cold then warm
SMOKE = {"cells": run.grid(("gzip",), ("full", "smarts"), "tiny"),
         "passes": ("cold", "warm")}


@pytest.fixture(scope="module")
def reference() -> dict:
    return run.build_reference([SMOKE])


@pytest.fixture(autouse=True)
def one_setup_probe(monkeypatch) -> None:
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


def declared_metrics(kind: str) -> dict:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


@pytest.mark.parametrize("trace, kind", [(False, "end_to_end"),
                                         (True, "per_layer")])
def test_smoke_grid_emits_the_declared_metrics(reference, trace, kind):
    result = run.measure(SMOKE, reference, seed=1, seconds=0, trace=trace)
    assert result["correct"] and result["failed"] == 0
    # cold + warm pass, twice more when traced
    assert result["attempted"] == 2 * len(SMOKE["cells"]) * (1 + trace)
    emitted = {name: unit for name, (_value, unit)
               in result["metrics"].items()}
    assert emitted == declared_metrics(kind)


def test_tampered_reference_digest_counts_as_failed(reference):
    tampered = copy.deepcopy(reference)
    key = run.cell_key(SMOKE["cells"][1])
    tampered["cells"][key] = "0" * 64
    result = run.measure(SMOKE, tampered, seed=0, seconds=0, trace=False)
    # the tampered cell fails in the cold and in the warm pass
    assert result["failed"] == 2
    assert not result["correct"]


def test_self_time_subtracts_wrapped_children():
    ticks = iter([0.0,           # root opens
                  1.0,           # outer opens
                  3.0, 4.0,      # inner: 1 s
                  4.5, 5.5,      # inner: 1 s
                  6.0,           # outer closes: 5 s, self 3 s
                  7.0, 9.0,      # leaf: 2 s
                  10.0])         # root closes: 10 s, self 3 s
    tracer = layers.Tracer(clock=lambda: next(ticks))
    inner = tracer.wrap("inner", lambda: None)
    leaf = tracer.wrap("leaf", lambda: 7,
                       observe=lambda t, args, kwargs, result:
                       t.count("leaf.result", result))

    def body():
        inner()
        inner()

    outer = tracer.wrap("outer", body)
    with tracer.span("root"):
        outer()
        assert leaf() == 7
    assert tracer.spans == {"inner": [2, 2.0, 2.0],
                            "outer": [1, 5.0, 3.0],
                            "leaf": [1, 2.0, 2.0],
                            "root": [1, 10.0, 3.0]}
    assert sum(stat[2] for stat in tracer.spans.values()) == 10.0
    assert tracer.counters == {"leaf.result": 7}


def test_traced_run_restores_every_wrapped_function():
    from repro.exec import execute_spec
    from repro.harness.experiments import make_spec

    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr in layers.seams()]
    tracer = layers.Tracer()
    with layers.traced(tracer):
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in originals)
        execute_spec(make_spec("gzip", "smarts", "tiny"))
    assert tracer.spans["sampling.policy"][0] == 1
    assert tracer.spans["vm.translate"][0] > 0
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)
    with pytest.raises(RuntimeError), layers.traced(layers.Tracer()):
        raise RuntimeError("a failing traced run")
    assert all(vars(owner)[attr] is original
               for owner, attr, original in originals)
