"""One fresh interpreter of the end-to-end benchmark.

``python3 child.py REQUEST.json`` reads a request written by ``run.py``
and writes its response to the request's ``out`` path.  A request is
either

* ``{"mode": "setup", "cells": [...]}`` — a set-up probe: import the
  modules a pass imports, build every program of the grid, boot one
  controller, and report the ``time.monotonic()`` at which it was ready;
* ``{"mode": "pass", "cells": [...], "cache": DIR, "force": bool,
  "trace": bool}`` — one pass of the grid through ``ExperimentEngine``
  (serial, ``jobs=1``) against the result and checkpoint stores under
  ``DIR``.  It reports the engine's wall time, a digest of every cell's
  result and, when traced, the per-layer spans of :mod:`layers`.

A cell is ``[benchmark, policy, size, cores]``.  Every response carries
the process's peak resident set size.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path


def result_digest(result) -> str:
    """sha256 of the result's deterministic (host-independent) view."""
    text = json.dumps(result.canonical_dict(), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def setup_probe(request: dict) -> dict:
    import repro.exec  # noqa: F401 - the imports a pass makes
    import repro.harness.experiments  # noqa: F401
    from repro.sampling import make_controller
    from repro.timing import TimingConfig
    from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

    programs = {}
    for benchmark, _policy, size, _cores in request["cells"]:
        programs.setdefault((benchmark, size),
                            load_benchmark(benchmark, size=size))
    make_controller(next(iter(programs.values())),
                    timing_config=TimingConfig.small(),
                    machine_kwargs=SUITE_MACHINE_KWARGS)
    return {"ready": time.monotonic()}


def run_pass(request: dict) -> dict:
    from repro.exec import ExperimentEngine, ResultStore
    from repro.exec.store import STORE_DIR_NAME
    from repro.harness.experiments import make_spec
    from repro.sampling import DEFAULT_COST_MODEL

    cells = request["cells"]
    specs = [make_spec(benchmark, policy, size, cores=cores)
             for benchmark, policy, size, cores in cells]
    engine = ExperimentEngine(
        store=ResultStore(Path(request["cache"]) / STORE_DIR_NAME), jobs=1)
    response: dict = {}
    if request["trace"]:
        import layers
        tracer = layers.Tracer()
        with layers.traced(tracer), tracer.span("exec.engine"):
            outcomes = engine.run(specs, force=request["force"])
        response["sweep_s"] = tracer.spans["exec.engine"][1]
        response["spans"] = tracer.spans
        response["counters"] = tracer.counters
        model = DEFAULT_COST_MODEL
        response["cost_model_ips"] = {
            "fast": model.fast_ips, "profile": model.profile_ips,
            "warming": model.warming_ips, "timed": model.timing_ips}
    else:
        start = time.perf_counter()
        outcomes = engine.run(specs, force=request["force"])
        response["sweep_s"] = time.perf_counter() - start
    records = []
    for spec in specs:
        outcome = outcomes[spec.key]
        record = {"ok": outcome.ok, "error": outcome.error,
                  "wall_s": outcome.wall_seconds}
        if outcome.ok:
            result = outcome.result
            vm_stats = result.extra["vm_stats"]
            record.update(
                digest=result_digest(result), ipc=result.ipc,
                modeled_s=result.modeled_seconds,
                vm_stats={key: vm_stats[key] for key in (
                    "translations", "block_dispatches",
                    "code_cache_invalidations")},
                checkpoints=result.extra["checkpoints"])
        records.append(record)
    response["cells"] = records
    return response


def main(path: str) -> None:
    request = json.loads(Path(path).read_text())
    handler = run_pass if request["mode"] == "pass" else setup_probe
    response = handler(request)
    # ru_maxrss is in KiB on Linux
    response["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(request["out"]).write_text(json.dumps(response))


if __name__ == "__main__":
    main(sys.argv[1])
