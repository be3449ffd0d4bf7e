"""Unified scheduling runtime: one job-lifecycle core under all simulators.

The paper evaluates the same scheduling ideas across three platform shapes
(one cluster, the centralized CIMENT grid, a decentralized exchange of
clusters); this package provides the single event-driven core they all run
on:

* :mod:`repro.runtime.lifecycle` -- :class:`SchedulingRuntime`, the shared
  submit -> queue -> allocate -> run -> complete/preempt state machine over
  :class:`~repro.simulation.resources.ProcessorPool` leases, configured per
  organisation by :class:`RuntimeConfig` and extended by
  :class:`RuntimeHook` objects;
* :mod:`repro.runtime.hooks` -- the grid organisations as hooks
  (best-effort bag filling, load exchange) plus mid-run policy switching;
* :mod:`repro.runtime.record` -- the unified
  :class:`SimulationRecord` / :class:`RunRecord` result model every
  simulator returns;
* :mod:`repro.runtime.golden` -- golden-digest helpers proving behavior
  stays bit-identical across refactors.

Policies implement the single
:class:`~repro.core.policies.online.SchedulingPolicy` protocol, so each of
the three queue policies built by
:func:`repro.core.policies.registry.make_policy` runs on every platform
shape.
"""

from repro.runtime.lifecycle import (
    ClusterNode,
    RuntimeConfig,
    RuntimeHook,
    SchedulingRuntime,
)
from repro.runtime.hooks import (
    BestEffortHook,
    GridServer,
    LoadExchangeHook,
    PolicySwitchHook,
)
from repro.runtime.record import (
    MODE_CENTRALIZED,
    MODE_CLUSTER,
    MODE_DECENTRALIZED,
    MODES,
    RunRecord,
    SimulationRecord,
)

__all__ = [
    "SchedulingRuntime",
    "ClusterNode",
    "RuntimeConfig",
    "RuntimeHook",
    "BestEffortHook",
    "GridServer",
    "LoadExchangeHook",
    "PolicySwitchHook",
    "SimulationRecord",
    "RunRecord",
    "MODES",
    "MODE_CLUSTER",
    "MODE_CENTRALIZED",
    "MODE_DECENTRALIZED",
]
