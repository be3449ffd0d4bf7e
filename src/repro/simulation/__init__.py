"""Discrete-event simulation substrate.

The paper's evaluation ("A simulated implementation of a variation of the
bi-criteria algorithm has been realized") relies on an event-driven simulator
of a cluster / light grid.  This package provides that substrate, written
from scratch for this reproduction:

* :mod:`repro.simulation.events` -- event queue primitives,
* :mod:`repro.simulation.engine` -- the simulation kernel (clock, event loop,
  callback scheduling),
* :mod:`repro.simulation.resources` -- a processor-pool resource with
  preemption (needed to kill best-effort jobs),
* :mod:`repro.simulation.tracing` -- execution traces and Gantt recording,
* :mod:`repro.simulation.cluster_sim` -- on-line simulation of one cluster
  driven by any scheduling policy,
* :mod:`repro.simulation.grid_sim` -- the centralized light-grid organisation
  of section 5.2 (best-effort multi-parametric jobs filling the holes),
* :mod:`repro.simulation.decentralized` -- the decentralized organisation
  (load exchange between clusters).

The three simulators are configurations of the unified job-lifecycle core in
:mod:`repro.runtime` and all return its
:class:`~repro.runtime.record.SimulationRecord`; they are imported lazily
here because the runtime itself builds on this package's kernel modules.
"""

from repro.simulation.engine import Simulator
from repro.simulation.events import Event, EventQueue
from repro.simulation.kernel import compiled_available, resolve_kernel
from repro.simulation.resources import ProcessorPool
from repro.simulation.tracing import Trace, TraceEvent

#: Simulator names resolved lazily (they import repro.runtime, which imports
#: this package's kernel modules -- a direct import here would be circular).
_LAZY = {
    "ClusterSimulator": "repro.simulation.cluster_sim",
    "compare_policies": "repro.simulation.cluster_sim",
    "CentralizedGridSimulator": "repro.simulation.grid_sim",
    "DecentralizedGridSimulator": "repro.simulation.decentralized",
}

__all__ = [
    "Simulator",
    "Event",
    "EventQueue",
    "compiled_available",
    "resolve_kernel",
    "ProcessorPool",
    "Trace",
    "TraceEvent",
    "ClusterSimulator",
    "CentralizedGridSimulator",
    "DecentralizedGridSimulator",
]


def __getattr__(name: str):
    if name in _LAZY:
        import importlib

        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
