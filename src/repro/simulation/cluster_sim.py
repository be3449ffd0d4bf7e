"""On-line simulation of a single cluster driven by a scheduling policy.

This is the event-driven counterpart of the schedule-constructing policies
of :mod:`repro.core.policies`: jobs arrive over time (their release dates),
wait in a queue, and a :class:`~repro.core.policies.online.SchedulingPolicy`
decides at every scheduling point (arrival or completion) which waiting jobs
to start on the free processors.

Since the unified-runtime refactor the simulator is a *configuration* of
:class:`repro.runtime.lifecycle.SchedulingRuntime` -- one strict node, no
hooks -- rather than its own event loop, and the result is the unified
:class:`repro.runtime.record.SimulationRecord`.  Any queue policy of
:func:`repro.core.policies.registry.make_policy` can drive the cluster by
name::

    ClusterSimulator(64, policy="backfill").run(jobs)

The queue-policy classes live in :mod:`repro.core.policies.online`.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

from repro.core.criteria import CriteriaReport
from repro.core.job import Job
from repro.core.policies.base import MoldableAllocator
from repro.core.policies.online import SchedulingPolicy
from repro.core.policies.registry import make_policy
from repro.metrics.ratios import schedule_ratios
from repro.platform.cluster import Cluster
from repro.runtime.lifecycle import ClusterNode, RuntimeConfig, SchedulingRuntime
from repro.runtime.record import MODE_CLUSTER, SimulationRecord

_CLUSTER_CONFIG = RuntimeConfig(
    strict_select=True,
    complete_with_processors=True,
    starved_message=(
        "simulation finished with {count} jobs still queued "
        "(policy {policy!r} starved them)"
    ),
)


class ClusterSimulator:
    """Event-driven on-line simulation of one cluster."""

    def __init__(
        self,
        platform: Union[Cluster, int],
        *,
        policy: Union[str, SchedulingPolicy] = "fifo",
        allocator: Optional[MoldableAllocator] = None,
        policy_switches: Sequence[Tuple[float, Union[str, SchedulingPolicy]]] = (),
        trace_labels: bool = False,
    ) -> None:
        if isinstance(platform, Cluster):
            self.machine_count = platform.processor_count
            self.cluster_name: Optional[str] = platform.name
        else:
            if platform < 1:
                raise ValueError("machine_count must be >= 1")
            self.machine_count = int(platform)
            self.cluster_name = None
        self.policy = make_policy(policy, allocator=allocator)
        #: Mid-run policy switches: (simulation time, policy name or instance)
        #: pairs, applied by a :class:`~repro.runtime.hooks.PolicySwitchHook`.
        self.policy_switches = [(float(t), p) for t, p in policy_switches]
        for _time, switch_policy in self.policy_switches:
            if not isinstance(switch_policy, SchedulingPolicy):
                make_policy(switch_policy)  # eager name validation
        #: Build per-event label strings (debugging aid; off on the fast path).
        self.trace_labels = trace_labels

    # -- main entry point -------------------------------------------------------
    def run(self, jobs: Sequence[Job]) -> SimulationRecord:
        jobs = list(jobs)
        node = ClusterNode(
            self.cluster_name or "cluster",
            self.machine_count,
            policy=self.policy,
            trace_name=self.cluster_name,
        )
        hooks = []
        if self.policy_switches:
            from repro.runtime.hooks import PolicySwitchHook

            hooks.append(
                PolicySwitchHook([(t, None, p) for t, p in self.policy_switches])
            )
        runtime = SchedulingRuntime(
            [node], hooks=hooks, config=_CLUSTER_CONFIG, trace_labels=self.trace_labels
        )
        horizon = runtime.run({node.name: jobs})

        node.schedule.validate()
        criteria = CriteriaReport.from_schedule(node.schedule)
        ratios = schedule_ratios(node.schedule, jobs, machine_count=self.machine_count)
        return SimulationRecord(
            mode=MODE_CLUSTER,
            machine_count=self.machine_count,
            schedules={node.name: node.schedule},
            cluster_criteria={node.name: criteria},
            trace=runtime.trace,
            horizon=horizon,
            policies={node.name: node.policy.name},
            ratios=ratios,
        )


def compare_policies(
    jobs: Sequence[Job],
    machine_count: int,
    *,
    policies: Sequence[str] = ("fifo", "backfill", "smallest-first"),
) -> Dict[str, SimulationRecord]:
    """Run the same workload under several queue policies (policy-comparison helper)."""

    results: Dict[str, SimulationRecord] = {}
    for name in policies:
        simulator = ClusterSimulator(machine_count, policy=name)
        results[name] = simulator.run(jobs)
    return results
