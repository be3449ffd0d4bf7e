"""The shared job-lifecycle core of all simulators.

One state machine -- submit -> queue -> allocate -> run -> complete (with
preemption of best-effort leases handled by the resource pool) -- drives
every platform organisation of the paper.  A :class:`SchedulingRuntime`
owns the discrete-event kernel, the trace, and one :class:`ClusterNode`
per cluster (queue + :class:`~repro.simulation.resources.ProcessorPool` +
policy + schedule); the differences between the single-cluster simulator,
the centralized best-effort grid and the decentralized exchange are

* a handful of :class:`RuntimeConfig` knobs (preemption-aware free counts,
  trace tagging, work/flow accounting, strict policy checking), and
* :class:`RuntimeHook` objects (:mod:`repro.runtime.hooks`) that attach
  extra behavior at the lifecycle's extension points -- best-effort bag
  filling, load exchange, mid-run policy switching.

New platform organisations implement hooks; they do not fork the event
loop.  The hot path keeps the PR-2 fast-path characteristics: ``__slots__``
state, per-event label strings gated behind ``trace_labels``, and the
kernel's batched same-time dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from repro.core.allocation import Schedule
from repro.core.job import Job
from repro.core.policies.base import SchedulerError
from repro.core.policies.online import SchedulingPolicy
from repro.platform.cluster import Cluster
from repro.simulation.engine import Simulator
from repro.simulation.resources import ProcessorPool
from repro.simulation.tracing import Trace
from repro.telemetry import TOPIC_RUNTIME, get_bus


class ClusterNode:
    """Per-cluster runtime state: queue, processor pool, policy, schedule."""

    __slots__ = (
        "name",
        "trace_name",
        "machine_count",
        "speed",
        "pool",
        "queue",
        "policy",
        "schedule",
        "work",
        "cluster",
    )

    def __init__(
        self,
        name: str,
        machine_count: int,
        *,
        policy: SchedulingPolicy,
        speed: float = 1.0,
        trace_name: Optional[str] = "",
        cluster: Optional[Cluster] = None,
    ) -> None:
        if machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        self.name = name
        #: Cluster tag on trace events ("" means: use ``name``).
        self.trace_name = name if trace_name == "" else trace_name
        self.machine_count = machine_count
        self.speed = speed
        self.pool = ProcessorPool(machine_count)
        self.queue: List[Job] = []
        self.policy = policy
        self.schedule = Schedule(machine_count)
        #: Accumulated work (see RuntimeConfig.track_work); best-effort hooks
        #: also add their completed durations here for utilization accounting.
        self.work = 0.0
        #: The platform description (None for anonymous processor counts).
        self.cluster = cluster

    def __repr__(self) -> str:
        return (
            f"ClusterNode(name={self.name!r}, machines={self.machine_count}, "
            f"policy={self.policy.name!r}, queued={len(self.queue)})"
        )


class RuntimeHook:
    """Extension point: organisation-specific behavior plugs into the core.

    Hooks are bound to the runtime before the event loop starts and get
    callbacks at the lifecycle's decision points.  All methods default to
    no-ops, so a hook only implements the points it cares about.
    """

    runtime: "SchedulingRuntime"

    def bind(self, runtime: "SchedulingRuntime") -> None:
        self.runtime = runtime

    def on_run_start(self) -> None:
        """After submissions are scheduled, before the event loop runs."""

    def after_try_start(self, node: ClusterNode) -> None:
        """After a scheduling attempt on ``node`` (queue may be empty)."""

    def on_submit(self, node: ClusterNode, job: Job) -> None:
        """After ``job`` was queued on ``node`` and a start was attempted."""

    def on_job_complete(self, node: ClusterNode) -> None:
        """After a job completed on ``node`` and a start was attempted."""


@dataclass(frozen=True)
class RuntimeConfig:
    """The per-organisation knobs of the lifecycle core."""

    #: Enforce that the policy never over-commits and always gets the
    #: processors it asked for (single-cluster strictness); without it,
    #: decisions that no longer fit are skipped and stay queued.
    strict_select: bool = False
    #: Offer processors held by preemptible (best-effort) leases to the
    #: policy as free, and let local starts reclaim them.
    preempt_best_effort: bool = False
    #: ``info=`` tag on submit/start/complete trace records of local jobs.
    local_info: str = ""
    #: Include the processor tuple on completion trace records.
    complete_with_processors: bool = False
    #: Accumulate ``runtime * nbproc`` on ``node.work`` when a job starts.
    track_work: bool = False
    #: Subtract it again on completion (running-work load accounting).
    release_work_on_complete: bool = False
    #: Record per-job flow times (completion - submission).
    track_flows: bool = False
    #: Message for the end-of-run starvation check; formatted with
    #: ``name`` / ``count`` / ``policy``.
    starved_message: str = "cluster {name!r} finished with {count} jobs queued"


class SchedulingRuntime:
    """The unified job-lifecycle core under all simulators."""

    __slots__ = (
        "sim",
        "trace",
        "nodes",
        "node_list",
        "hooks",
        "trace_labels",
        "flows",
        "release_of",
        "config",
        "_strict",
        "_preempt",
        "_local_info",
        "_complete_procs",
        "_track_work",
        "_release_work",
        "_track_flows",
    )

    def __init__(
        self,
        nodes: Sequence[ClusterNode],
        *,
        hooks: Sequence[RuntimeHook] = (),
        config: Optional[RuntimeConfig] = None,
        trace_labels: bool = False,
        kernel: Optional[str] = None,
    ) -> None:
        if not nodes:
            raise ValueError("the runtime needs at least one cluster node")
        names = [node.name for node in nodes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate cluster node names: {names}")
        # ``kernel`` selects the simulation kernel tier for this runtime's
        # event dispatch (pure / compiled / auto; defaults to $REPRO_KERNEL).
        self.sim = Simulator(trace_labels=trace_labels, kernel=kernel)
        self.trace = Trace()
        self.node_list: List[ClusterNode] = list(nodes)
        self.nodes: Dict[str, ClusterNode] = {node.name: node for node in nodes}
        self.hooks: List[RuntimeHook] = list(hooks)
        self.trace_labels = trace_labels
        self.config = config or RuntimeConfig()
        #: Flow time of each completed job (when config.track_flows).
        self.flows: Dict[str, float] = {}
        #: First submission time of each job (when config.track_flows).
        self.release_of: Dict[str, float] = {}
        # Bind the config to slots: these are read per event on the hot path.
        self._strict = self.config.strict_select
        self._preempt = self.config.preempt_best_effort
        self._local_info = self.config.local_info
        self._complete_procs = self.config.complete_with_processors
        self._track_work = self.config.track_work
        self._release_work = self.config.release_work_on_complete
        self._track_flows = self.config.track_flows
        for hook in self.hooks:
            hook.bind(self)

    # -- lifecycle ----------------------------------------------------------
    def run(self, submissions: Mapping[str, Sequence[Job]]) -> float:
        """Schedule the submissions, run the event loop, return the horizon."""

        unknown = [name for name in submissions if name not in self.nodes]
        if unknown:
            raise ValueError(f"submissions reference unknown clusters: {unknown}")
        # Telemetry is per-run (not per-event): two bus publishes bracket the
        # whole event loop, so the hot path stays untouched.
        job_count = sum(len(jobs) for jobs in submissions.values())
        get_bus().emit(
            TOPIC_RUNTIME,
            "run-start",
            nodes=len(self.node_list),
            machines=sum(node.machine_count for node in self.node_list),
            jobs=job_count,
            hooks=[type(hook).__name__ for hook in self.hooks],
        )
        labels = self.trace_labels
        sim = self.sim
        for cluster_name, jobs in submissions.items():
            node = self.nodes[cluster_name]
            for job in sorted(jobs, key=lambda j: (j.release_date, j.name)):
                sim.schedule_at(
                    job.release_date,
                    lambda node=node, job=job: self._submit(node, job),
                    label=f"submit {job.name}" if labels else "",
                )
        for hook in self.hooks:
            hook.on_run_start()
        sim.run()
        for node in self.node_list:
            if node.queue:
                raise SchedulerError(
                    self.config.starved_message.format(
                        name=node.name, count=len(node.queue), policy=node.policy.name
                    )
                )
        get_bus().emit(
            TOPIC_RUNTIME,
            "run-end",
            nodes=len(self.node_list),
            jobs=job_count,
            horizon=sim.now,
            trace_events=len(self.trace),
        )
        return sim.now

    def _submit(self, node: ClusterNode, job: Job) -> None:
        now = self.sim.now
        if self._track_flows:
            self.release_of[job.name] = now
        self.trace.record(now, "submit", job.name, cluster=node.trace_name,
                          info=self._local_info)
        node.queue.append(job)
        self.try_start(node)
        for hook in self.hooks:
            hook.on_submit(node, job)

    def try_start(self, node: ClusterNode) -> None:
        """Ask the node's policy for jobs to start on the free processors."""

        sim = self.sim
        now = sim.now
        queue = node.queue
        if not queue:
            for hook in self.hooks:
                hook.after_try_start(node)
            return
        pool = node.pool
        free = pool.free_count()
        if self._preempt:
            free += len(pool.preemptible_processors())
        elif free == 0:
            # Saturated cluster: no point consulting the policy, but the
            # extension point still fires so hooks see *every* attempt.
            for hook in self.hooks:
                hook.after_try_start(node)
            return
        decisions = node.policy.select(tuple(queue), free, now, node.machine_count)
        if self._strict:
            used = sum(nbproc for _, nbproc in decisions)
            if used > free:
                raise SchedulerError(
                    f"policy {node.policy.name!r} over-committed: asked {used} "
                    f"processors, only {free} free"
                )
        labels = self.trace_labels
        trace = self.trace
        for job, nbproc in decisions:
            processors = pool.try_acquire(
                job.name, nbproc, allow_preemption=self._preempt
            )
            if processors is None:
                assert not self._strict
                continue
            queue.remove(job)
            runtime = job.runtime(nbproc) / node.speed
            if self._track_work:
                node.work += runtime * nbproc
            node.schedule.add(job, now, processors, runtime)
            trace.record(now, "start", job.name, cluster=node.trace_name,
                         processors=processors, info=self._local_info)
            sim.schedule(
                runtime,
                lambda node=node, job=job, processors=processors, runtime=runtime,
                nbproc=nbproc: self._complete(node, job, processors, runtime, nbproc),
                label=f"complete {job.name}" if labels else "",
            )
        for hook in self.hooks:
            hook.after_try_start(node)

    def _complete(self, node: ClusterNode, job: Job, processors, runtime: float,
                  nbproc: int) -> None:
        now = self.sim.now
        node.pool.release(job.name)
        if self._release_work:
            node.work -= runtime * nbproc
        if self._track_flows:
            self.flows[job.name] = now - self.release_of[job.name]
        if self._complete_procs:
            self.trace.record(now, "complete", job.name, cluster=node.trace_name,
                              processors=processors, info=self._local_info)
        else:
            self.trace.record(now, "complete", job.name, cluster=node.trace_name,
                              info=self._local_info)
        self.try_start(node)
        for hook in self.hooks:
            hook.on_job_complete(node)
