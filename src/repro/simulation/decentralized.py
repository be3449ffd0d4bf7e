"""Decentralized light-grid organisation (section 5.2, "Decentralized").

"In this vision, all jobs -- grid and local ones -- are submitted to local
scheduling systems.  These systems then have the possibility to exchange work
in order to balance the load.  The protocol for exchanging work still has to
be defined, but it would have to take care of both fairness and performance
issues at the same time."

Since the paper explicitly leaves the protocol open, this module implements
a simple, well-documented *load-threshold* exchange protocol (see
:class:`repro.runtime.hooks.LoadExchangeHook` for the rules: relative-load
comparison on every submission/completion, smallest-first migration of
queued jobs, wide-area transfer delays, owners preserved for the fairness
metrics).

Since the unified-runtime refactor the simulator is a *configuration* of
:class:`repro.runtime.lifecycle.SchedulingRuntime`: one node per cluster
with running-work and flow-time accounting, plus the exchange hook.  Like
the centralized simulator, ``local_policy`` accepts a single policy or a
per-cluster mapping, so each cluster of the grid can run its own scheduler.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Sequence, Union

from repro.core.allocation import Schedule
from repro.core.criteria import CriteriaReport
from repro.core.job import Job
from repro.core.policies.base import MoldableAllocator
from repro.metrics.fairness import fairness_report
from repro.platform.grid import LightGrid
from repro.runtime.hooks import LoadExchangeHook
from repro.runtime.lifecycle import ClusterNode, RuntimeConfig, SchedulingRuntime
from repro.core.policies.registry import PolicySpec, resolve_cluster_policies
from repro.runtime.record import MODE_DECENTRALIZED, SimulationRecord

_DECENTRALIZED_CONFIG = RuntimeConfig(
    track_work=True,
    release_work_on_complete=True,
    track_flows=True,
    starved_message="cluster {name!r} finished with {count} jobs queued",
)


class DecentralizedGridSimulator:
    """Load-threshold work exchange between the clusters of a light grid."""

    def __init__(
        self,
        grid: LightGrid,
        *,
        local_policy: Union[PolicySpec, Mapping[str, PolicySpec]] = "backfill",
        allocator: Optional[MoldableAllocator] = None,
        imbalance_threshold: float = 2.0,
        exchange_enabled: bool = True,
        data_volume_per_work_unit: float = 0.1,
        trace_labels: bool = False,
    ) -> None:
        if imbalance_threshold < 0:
            raise ValueError("imbalance_threshold must be >= 0")
        self.grid = grid
        self._policies = resolve_cluster_policies(
            grid, local_policy, allocator, default="backfill"
        )
        self.imbalance_threshold = imbalance_threshold
        self.exchange_enabled = exchange_enabled
        self.data_volume_per_work_unit = data_volume_per_work_unit
        #: Build per-event label strings (debugging aid; off on the fast path).
        self.trace_labels = trace_labels

    # -- main entry point --------------------------------------------------------
    def run(self, submissions: Mapping[str, Sequence[Job]]) -> SimulationRecord:
        """Run the simulation; ``submissions`` maps cluster name -> local jobs."""

        unknown = [name for name in submissions if name not in self.grid.cluster_names]
        if unknown:
            raise ValueError(f"submissions reference unknown clusters: {unknown}")

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
        exchange = LoadExchangeHook(
            self.grid,
            imbalance_threshold=self.imbalance_threshold,
            enabled=self.exchange_enabled,
            data_volume_per_work_unit=self.data_volume_per_work_unit,
        )
        runtime = SchedulingRuntime(
            nodes,
            hooks=[exchange],
            config=_DECENTRALIZED_CONFIG,
            trace_labels=self.trace_labels,
        )
        horizon = runtime.run(submissions)

        criteria: Dict[str, CriteriaReport] = {}
        for node in nodes:
            node.schedule.validate()
            criteria[node.name] = CriteriaReport.from_schedule(node.schedule)

        # Fairness is computed on the union of the per-cluster schedules on a
        # virtual platform of the full grid size.
        union = Schedule(self.grid.processor_count)
        offset = 0
        for node in nodes:
            union.extend(node.schedule, processor_offset=offset)
            offset += node.machine_count
        fairness = fairness_report(
            union,
            entitled_shares={
                c.community or c.name: c.processor_count / self.grid.processor_count
                for c in self.grid
            },
        )

        flow_values = list(runtime.flows.values())
        mean_flow = sum(flow_values) / len(flow_values) if flow_values else 0.0
        max_flow = max(flow_values) if flow_values else 0.0
        return SimulationRecord(
            mode=MODE_DECENTRALIZED,
            machine_count=self.grid.processor_count,
            schedules={node.name: node.schedule for node in nodes},
            cluster_criteria=criteria,
            trace=runtime.trace,
            horizon=horizon,
            policies={node.name: node.policy.name for node in nodes},
            migrations=exchange.migrations,
            migrated_jobs=exchange.migrated_jobs,
            fairness=fairness,
            flows=dict(runtime.flows),
            mean_flow=mean_flow,
            max_flow=max_flow,
        )
