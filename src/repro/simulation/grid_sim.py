"""Centralized light-grid simulation (section 5.2, "Centralized").

"Each cluster keeps its own submission system used only for jobs that are to
be processed locally.  Additionally, there is a centralized server to which
all grid jobs are submitted.  In this setting, grid jobs are only
multi-parametric jobs, which the centralized server submits on the local
clusters in order to fill the holes of their respective schedules.  This is
achieved through the notion of best-effort jobs: the local scheduler gives no
warranty that the job will be finished.  If a locally submitted job requires
a processor currently in use by a best-effort job, the latter will be killed.
The central server then has to submit it once again.  [...]  Furthermore,
this ensures that local users of the clusters will not be disturbed by grid
jobs."

Since the unified-runtime refactor the simulator is a *configuration* of
:class:`repro.runtime.lifecycle.SchedulingRuntime`: one node per cluster
with preemption-aware free counts, plus the
:class:`repro.runtime.hooks.BestEffortHook` implementing the best-effort
protocol (fill idle processors, kill + resubmit on local demand).  The
**non-disturbance invariant** -- local jobs start exactly as if the grid
jobs did not exist -- is checked by the test-suite by comparing against a
simulation without grid jobs.

``local_policy`` accepts a single policy (name or instance, applied to
every cluster) or a mapping from cluster name to policy, so heterogeneous
grids can run a different scheduler per cluster.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.core.criteria import CriteriaReport
from repro.core.job import Job, ParametricSweep
from repro.core.policies.base import MoldableAllocator
from repro.core.policies.registry import (
    PolicySpec,
    resolve_cluster_policies,
)
from repro.platform.grid import LightGrid
from repro.runtime.hooks import BestEffortHook, GridServer
from repro.runtime.lifecycle import ClusterNode, RuntimeConfig, SchedulingRuntime
from repro.runtime.record import MODE_CENTRALIZED, SimulationRecord

_CENTRALIZED_CONFIG = RuntimeConfig(
    preempt_best_effort=True,
    local_info="local",
    track_work=True,
    starved_message="cluster {name!r} finished with {count} local jobs queued",
)


class CentralizedGridSimulator:
    """Simulate the centralized organisation of section 5.2 on a light grid."""

    def __init__(
        self,
        grid: LightGrid,
        *,
        local_policy: Union[PolicySpec, Mapping[str, PolicySpec]] = "fifo",
        allocator: Optional[MoldableAllocator] = None,
        best_effort_enabled: bool = True,
        trace_labels: bool = False,
    ) -> None:
        self.grid = grid
        self._policies = resolve_cluster_policies(
            grid, local_policy, allocator, default="fifo"
        )
        self.best_effort_enabled = best_effort_enabled
        #: Build per-event label strings (debugging aid; off on the fast path).
        self.trace_labels = trace_labels

    # -- main entry point ---------------------------------------------------------
    def run(
        self,
        local_jobs: Mapping[str, Sequence[Job]],
        grid_bags: Sequence[ParametricSweep] = (),
    ) -> SimulationRecord:
        """Run the simulation.

        Parameters
        ----------
        local_jobs:
            Mapping from cluster name to the list of jobs submitted locally on
            that cluster.
        grid_bags:
            Multi-parametric bags submitted to the central server.
        """

        unknown = [name for name in local_jobs if name not in self.grid.cluster_names]
        if unknown:
            raise ValueError(f"local jobs reference unknown clusters: {unknown}")

        server = GridServer(grid_bags if self.best_effort_enabled else [])
        nodes = [
            ClusterNode(
                cluster.name,
                cluster.processor_count,
                policy=self._policies[cluster.name],
                speed=cluster.machines[0].speed,
                cluster=cluster,
            )
            for cluster in self.grid
        ]
        runtime = SchedulingRuntime(
            nodes,
            hooks=[BestEffortHook(server)],
            config=_CENTRALIZED_CONFIG,
            trace_labels=self.trace_labels,
        )
        horizon = runtime.run(local_jobs)

        criteria: Dict[str, CriteriaReport] = {}
        utilization: Dict[str, float] = {}
        for node in nodes:
            node.schedule.validate(check_release_dates=True)
            criteria[node.name] = CriteriaReport.from_schedule(node.schedule)
            denom = node.machine_count * horizon
            utilization[node.name] = node.work / denom if denom > 0 else 0.0

        return SimulationRecord(
            mode=MODE_CENTRALIZED,
            machine_count=self.grid.processor_count,
            schedules={node.name: node.schedule for node in nodes},
            cluster_criteria=criteria,
            trace=runtime.trace,
            horizon=horizon,
            policies={node.name: node.policy.name for node in nodes},
            utilization=utilization,
            bag_completion=dict(server.bag_completion),
            runs_completed=dict(server.completed),
            kills=server.kills,
            launches=server.launches,
        )
