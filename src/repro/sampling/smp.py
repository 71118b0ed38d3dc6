"""Choosing how a workload is run: the machine kwargs and the class.

:class:`~repro.sampling.controller.SimulationController` drives one
hart or N itself — :meth:`~repro.workloads.dsl.Workload.boot` picks
the machine kind.  :func:`make_controller` is the seam the exec worker
and harness go through: it folds the hart count
:func:`~repro.workloads.dsl.smp_cores` decides into the machine kwargs
(so replica passes, fingerprints and store keys see it) and returns
:class:`SmpSimulationController` for per-hart guests.
"""

from __future__ import annotations

from typing import Optional

from repro import obs
from repro.timing import TimingConfig
from repro.workloads import Workload, smp_cores

from .controller import SimulationController

__all__ = ["SmpSimulationController", "make_controller"]


class SmpSimulationController(SimulationController):
    """:class:`SimulationController` as :func:`make_controller`
    returns it for a per-hart guest; it adds no behaviour."""

    # The end-to-end benchmark's layer tracer wraps these two through
    # this class's own namespace (vars()); aliasing keeps those seams
    # without a second implementation.
    run_warming = SimulationController.run_warming
    run_timed = SimulationController.run_timed


def make_controller(workload: Workload,
                    timing_config: Optional[TimingConfig] = None,
                    machine_kwargs: Optional[dict] = None,
                    feedback: bool = False,
                    tracer: Optional[obs.Tracer] = None
                    ) -> SimulationController:
    """Build the controller for ``workload``.

    When :func:`~repro.workloads.dsl.smp_cores` boots the workload
    multi-core, its hart count goes into the machine kwargs and the
    run gets :class:`SmpSimulationController`; everything else gets
    the plain class.
    """
    kwargs = dict(machine_kwargs or {})
    n_cores = smp_cores(workload.parallel, workload.n_cores,
                        int(kwargs.get("n_cores", 0) or 0))
    cls = SimulationController
    if n_cores is not None:
        kwargs["n_cores"] = n_cores
        cls = SmpSimulationController
    return cls(workload, timing_config=timing_config,
               machine_kwargs=kwargs, feedback=feedback, tracer=tracer)
