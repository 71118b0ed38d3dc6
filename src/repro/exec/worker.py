"""The unit of work: run one :class:`JobSpec` to a PolicyResult.

This is the function every backend executes — in-process for the
serial backend, inside a worker process for the process pool.  The
imports are deliberately lazy: the policy registry lives in
:mod:`repro.harness.experiments` (which imports :mod:`repro.exec` at
module level), and worker processes should pay the import cost only
when they actually run a job.
"""

from __future__ import annotations

from repro.sampling import PolicyResult

from .spec import JobSpec

__all__ = ["execute_spec"]


def execute_spec(spec: JobSpec,
                 tracer: object = None) -> PolicyResult:
    """Run one simulation job; deterministic in everything but wall
    time (each job builds its own workload, controller and sampler —
    no shared RNG or mutable state crosses jobs).

    When ``spec.events_path`` is set and no tracer is supplied, a
    JSONL file tracer is attached for the duration of the job, with
    every event tagged ``job=<job_id>`` so traces from parallel
    workers can be merged coherently.

    When ``spec.telemetry_dir`` is set, a heartbeat thread writes
    periodic liveness + metrics-registry snapshots under it for the
    duration of the job (metrics are enabled for the job so the
    snapshots carry live counters; the previous enablement state is
    restored on exit — a no-op in the usual forked-worker case).
    """
    from repro.harness.experiments import policy_factory
    from repro.sampling import make_controller
    from repro.timing import TimingConfig
    from repro.workloads import SUITE_MACHINE_KWARGS, load_benchmark

    owned_tracer = None
    if tracer is None and spec.events_path:
        from repro.obs import JsonlFileSink, Tracer
        owned_tracer = tracer = Tracer(JsonlFileSink(spec.events_path),
                                       tags={"job": spec.job_id})
    heartbeat = None
    metrics_were_enabled = True
    if spec.telemetry_dir:
        from repro.obs import enable_metrics, metrics_enabled
        from repro.obs.telemetry import HeartbeatWriter
        metrics_were_enabled = metrics_enabled()
        enable_metrics()
        heartbeat = HeartbeatWriter(spec.telemetry_dir,
                                    spec.job_id).start()
    try:
        workload = load_benchmark(spec.benchmark, size=spec.size)
        machine_kwargs = dict(SUITE_MACHINE_KWARGS)
        # Single-core jobs keep the exact historical kwargs (and thus
        # fingerprint); any SMP job — multi-core, or an inherently
        # parallel benchmark at any count — pins its count explicitly.
        if spec.cores > 1 or getattr(workload, "parallel", False):
            machine_kwargs["n_cores"] = spec.cores
        controller = make_controller(
            workload, timing_config=TimingConfig.small(),
            machine_kwargs=machine_kwargs, tracer=tracer)
        if spec.checkpoint_root:
            from repro.exec.ckptstore import (CheckpointLadder,
                                              CheckpointStore,
                                              program_fingerprint)
            from repro.exec.spec import config_fingerprint
            controller.attach_checkpoints(CheckpointLadder(
                CheckpointStore(spec.checkpoint_root),
                program_fingerprint(workload),
                config_fingerprint(None, machine_kwargs)))
        result = policy_factory(spec.policy)().run(controller)
    except BaseException:
        if heartbeat is not None:
            heartbeat.stop("failed")
            heartbeat = None
        raise
    finally:
        if heartbeat is not None:
            heartbeat.stop("done")
        if spec.telemetry_dir and not metrics_were_enabled:
            from repro.obs import disable_metrics
            disable_metrics()
        if owned_tracer is not None:
            owned_tracer.close()
    result.fingerprint = spec.fingerprint
    result.job = {"id": spec.job_id}
    return result
