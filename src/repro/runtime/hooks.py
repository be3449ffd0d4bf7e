"""Runtime hooks: the grid organisations as pluggable lifecycle extensions.

The paper's two light-grid organisations (section 5.2) used to be forked
event loops; here they are :class:`~repro.runtime.lifecycle.RuntimeHook`
implementations over the shared job-lifecycle core:

* :class:`BestEffortHook` -- the *centralized* organisation: a
  :class:`GridServer` holds multi-parametric bags and keeps every idle
  processor busy with preemptible best-effort runs; local jobs reclaim the
  processors (kill + resubmit);
* :class:`LoadExchangeHook` -- the *decentralized* organisation: clusters
  compare relative loads after every submission/completion and migrate
  queued jobs (smallest first) to the least loaded cluster, charging the
  wide-area transfer time;
* :class:`PolicySwitchHook` -- operational scenario support: swap a node's
  scheduling policy at fixed simulation times (e.g. day/night policies).

New platform behaviors belong here (or in user code) as further hooks --
never as new event loops.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.bounds import min_work
from repro.core.job import Job, MoldableJob, ParametricSweep, RigidJob
from repro.core.policies.online import SchedulingPolicy
from repro.core.policies.registry import make_policy
from repro.runtime.lifecycle import ClusterNode, RuntimeHook


# ---------------------------------------------------------------------------
# Centralized organisation: best-effort bag filling
# ---------------------------------------------------------------------------


class _Run:
    """One elementary run of a multi-parametric bag.

    ``name`` is precomputed at construction: it labels every lease, trace
    record and kill/resubmit of the run, and a busy grid re-reads it far
    more often than runs are created.
    """

    __slots__ = ("bag", "index", "name")

    def __init__(self, bag: ParametricSweep, index: int) -> None:
        self.bag = bag
        self.index = index
        self.name = f"{bag.name}#{index}"


class GridServer:
    """The central server holding the multi-parametric grid jobs.

    Runs leave in bag order, and a killed run goes back to the head of the
    queue.  The queue is kept in two parts: killed runs wait in a head deque
    (``appendleft``/``popleft``), and fresh runs are built one at a time, in
    bag order, only when the head deque is empty.  That is the order a single
    deque of every run would give, without building a busy grid's tens of
    thousands of runs up front.
    """

    def __init__(self, bags: Sequence[ParametricSweep]) -> None:
        names = [b.name for b in bags]
        if len(set(names)) != len(names):
            raise ValueError("duplicate bag names")
        self.bags = list(bags)
        self.completed: Dict[str, int] = {b.name: 0 for b in bags}
        self.launches = 0
        self.kills = 0
        self.bag_completion: Dict[str, Optional[float]] = {b.name: None for b in bags}
        self._resubmitted: Deque[_Run] = deque()
        self._fresh = (_Run(bag, index) for bag in self.bags for index in range(bag.n_runs))
        self._unissued = sum(b.n_runs for b in self.bags)

    def next_run(self) -> Optional[_Run]:
        if self._resubmitted:
            return self._resubmitted.popleft()
        if not self._unissued:
            return None
        self._unissued -= 1
        return next(self._fresh)

    def resubmit(self, run: _Run) -> None:
        """A killed run goes back to the head of the queue ("submit it once again")."""

        self.kills += 1
        self._resubmitted.appendleft(run)

    def complete(self, run: _Run, now: float) -> None:
        self.completed[run.bag.name] += 1
        if self.completed[run.bag.name] == run.bag.n_runs:
            self.bag_completion[run.bag.name] = now

    @property
    def remaining_runs(self) -> int:
        return len(self._resubmitted) + self._unissued


class _BestEffortLaunch:
    """One best-effort run on one cluster, from launch to completion or kill.

    Its bound methods are the pool's ``on_preempt`` callback (:meth:`kill`)
    and the kernel's completion callback (:meth:`complete`), so a launch
    costs one small object instead of a state dict and two closures.  A
    kill only sets ``cancelled``: the completion event still fires, as a
    no-op, so the kernel's event count does not depend on kills.

    On a busy grid most completions free the only free processor of their
    cluster, and :meth:`BestEffortHook.fill` would give that processor to
    the server's next run.  :meth:`complete` then hands the lease over
    (:meth:`~repro.simulation.resources.ProcessorPool.hand_over`) instead
    of releasing and re-acquiring it; any other completion releases its
    processor and calls ``fill``.
    """

    __slots__ = ("hook", "node", "run", "lease_name", "duration", "cancelled")

    def __init__(self, hook: "BestEffortHook", node: ClusterNode, run: _Run) -> None:
        self.hook = hook
        self.node = node
        self.run = run
        self.lease_name = f"be:{run.name}"
        self.duration = run.bag.run_time / node.speed
        self.cancelled = False

    def kill(self, _processors: Tuple[int, ...]) -> None:
        # Killed by a local job: resubmit and cancel the completion.
        self.cancelled = True
        hook = self.hook
        runtime = hook.runtime
        now = runtime.sim.now
        name = self.run.name
        cluster = self.node.trace_name
        runtime.trace.record(now, "kill", name, cluster=cluster)
        hook.server.resubmit(self.run)
        runtime.trace.record(now, "resubmit", name, cluster=cluster)
        # The resubmitted run may find room on another cluster that
        # currently has no pending event: wake them all up.
        runtime.sim.schedule(
            0.0,
            hook.fill_all,
            priority=2,
            label="refill after kill" if runtime.trace_labels else "",
        )

    def complete(self) -> None:
        if self.cancelled:
            return
        hook = self.hook
        node = self.node
        runtime = hook.runtime
        now = runtime.sim.now
        server = hook.server
        trace = runtime.trace
        node.work += self.duration
        trace.record(now, "complete", self.run.name,
                     cluster=node.trace_name, info="best-effort")
        server.complete(self.run, now)
        pool = node.pool
        if pool.free_count():
            pool.release(self.lease_name)
            hook.fill(node)
            return
        # Hand-off: the freed processor is the only free one, so ``fill``
        # would give it to the server's next run.  Pass the lease straight
        # on instead; the trace, the kernel events and ``launches`` are
        # those of the release + fill path.
        run = server.next_run()
        if run is None:
            pool.release(self.lease_name)
            return
        launch = _BestEffortLaunch(hook, node, run)
        processors = pool.hand_over(self.lease_name, launch.lease_name, launch.kill)
        server.launches += 1
        trace.record(now, "start", run.name, cluster=node.trace_name,
                     processors=processors, info="best-effort")
        runtime.sim.schedule(launch.duration, launch.complete,
                             label=f"complete {run.name}" if runtime.trace_labels else "")


class BestEffortHook(RuntimeHook):
    """Fill idle processors with preemptible best-effort runs (section 5.2).

    Local jobs may reclaim the processors through the pool's preemption
    support (enable ``preempt_best_effort`` in the runtime config): the
    killed run is resubmitted to the server and every cluster is refilled.
    """

    def __init__(self, server: GridServer) -> None:
        self.server = server

    def on_run_start(self) -> None:
        runtime = self.runtime
        labels = runtime.trace_labels
        # Kick off best-effort filling at time 0 on every cluster.
        for node in runtime.node_list:
            runtime.sim.schedule(
                0.0,
                lambda node=node: self.fill(node),
                priority=1,
                label=f"fill {node.name}" if labels else "",
            )

    def after_try_start(self, node: ClusterNode) -> None:
        self.fill(node)

    def fill_all(self) -> None:
        for node in self.runtime.node_list:
            self.fill(node)

    def fill(self, node: ClusterNode) -> None:
        """Give every idle processor of the cluster a best-effort run."""

        runtime = self.runtime
        sim = runtime.sim
        trace = runtime.trace
        labels = runtime.trace_labels
        server = self.server
        pool = node.pool
        now = sim.now
        while pool.free_count() > 0:
            run = server.next_run()
            if run is None:
                return
            launch = _BestEffortLaunch(self, node, run)
            processors = pool.try_acquire(
                launch.lease_name, 1, preemptible=True,
                on_preempt=launch.kill,
            )
            if processors is None:
                return
            server.launches += 1
            trace.record(now, "start", run.name,
                         cluster=node.trace_name, processors=processors,
                         info="best-effort")
            sim.schedule(launch.duration, launch.complete,
                         label=f"complete {run.name}" if labels else "")


# ---------------------------------------------------------------------------
# Decentralized organisation: load-threshold work exchange
# ---------------------------------------------------------------------------


class LoadExchangeHook(RuntimeHook):
    """Migrate queued jobs between clusters when the load imbalance exceeds
    a threshold (the decentralized organisation of section 5.2)."""

    def __init__(
        self,
        grid,
        *,
        imbalance_threshold: float = 2.0,
        enabled: bool = True,
        data_volume_per_work_unit: float = 0.1,
    ) -> None:
        self.grid = grid
        self.imbalance_threshold = imbalance_threshold
        self.enabled = enabled
        self.data_volume_per_work_unit = data_volume_per_work_unit
        self.migrations = 0
        self.migrated_jobs: List[str] = []
        #: Each node's total compute rate, summed once per run on first use
        #: (machines are frozen and a cluster's machine tuple never changes).
        self._rates: Dict[ClusterNode, float] = {}

    def on_run_start(self) -> None:
        self._rates = {}

    def on_submit(self, node: ClusterNode, job: Job) -> None:
        self.maybe_exchange(node)

    def on_job_complete(self, node: ClusterNode) -> None:
        self.maybe_exchange(node)

    def relative_load(self, node: ClusterNode) -> float:
        rate = self._rates.get(node)
        if rate is None:
            rate = self._rates[node] = node.cluster.total_compute_rate
        queued = sum(min_work(j) for j in node.queue)
        return (queued + node.work) / rate

    def maybe_exchange(self, node: ClusterNode) -> None:
        if not self.enabled:
            return
        runtime = self.runtime
        queue = node.queue
        if not queue:
            return
        my_load = self.relative_load(node)
        others = [n for n in runtime.node_list if n.name != node.name]
        if not others:
            return
        # Deterministic tie-break: equal loads resolve by cluster name, not
        # by grid declaration order.
        target = min(others, key=lambda other: (self.relative_load(other), other.name))
        target_load = self.relative_load(target)
        if my_load - target_load <= self.imbalance_threshold:
            return
        sim = runtime.sim
        trace = runtime.trace
        labels = runtime.trace_labels
        # Migrate queued jobs (smallest first) while the imbalance persists.
        for job in sorted(queue, key=lambda j: (min_work(j), j.name)):
            my_load = self.relative_load(node)
            target_load = self.relative_load(target)
            if my_load - target_load <= self.imbalance_threshold:
                break
            # A job that cannot run on the target cluster stays put.
            target_procs = target.machine_count
            if isinstance(job, RigidJob) and job.nbproc > target_procs:
                continue
            if isinstance(job, MoldableJob) and job.min_procs > target_procs:
                continue
            queue.remove(job)
            self.migrations += 1
            self.migrated_jobs.append(job.name)
            delay = self.grid.transfer_time(
                node.name, target.name,
                min_work(job) * self.data_volume_per_work_unit,
            )
            trace.record(sim.now, "migrate", job.name, cluster=node.trace_name,
                         info=f"-> {target.name}")

            def arrive(job=job, target=target) -> None:
                target.queue.append(job)
                trace.record(sim.now, "submit", job.name, cluster=target.trace_name,
                             info="migrated")
                runtime.try_start(target)

            sim.schedule(delay, arrive,
                         label=f"migrate {job.name}" if labels else "")


# ---------------------------------------------------------------------------
# Mid-run policy switching
# ---------------------------------------------------------------------------


class PolicySwitchHook(RuntimeHook):
    """Swap the scheduling policy of clusters at fixed simulation times.

    ``switches`` is a sequence of ``(time, cluster_name, policy)`` triples;
    ``cluster_name=None`` applies the switch to every node.  ``policy`` is
    anything :func:`~repro.core.policies.registry.make_policy` accepts.  A
    ``policy-switch`` trace event records each swap, and a scheduling round
    runs immediately so the new policy can start jobs at the switch instant.
    The new policy keeps the node's moldable->rigid allocator unless the
    switch names an explicit policy instance carrying its own.

    Switch events are ordinary simulation events: a switch scheduled past
    the end of the workload keeps the clock running (and the horizon
    growing) until it fires, so place switches within the workload span.
    """

    def __init__(
        self,
        switches: Sequence[Tuple[float, Optional[str], Union[str, SchedulingPolicy]]],
    ) -> None:
        self.switches = list(switches)
        for time, _cluster, policy in self.switches:
            if time < 0:
                raise ValueError("policy switch times must be >= 0")
            if not isinstance(policy, SchedulingPolicy):
                # Eager name validation: a typo should fail at construction,
                # not mid-simulation when the switch event fires.  The real
                # instance is built at fire time with the node's allocator.
                make_policy(policy)

    def on_run_start(self) -> None:
        runtime = self.runtime
        labels = runtime.trace_labels
        for time, cluster_name, policy in self.switches:
            if cluster_name is None:
                targets = list(runtime.node_list)
            elif cluster_name in runtime.nodes:
                targets = [runtime.nodes[cluster_name]]
            else:
                raise ValueError(
                    f"policy switch references unknown cluster {cluster_name!r}; "
                    f"known: {sorted(runtime.nodes)}"
                )
            for node in targets:
                runtime.sim.schedule_at(
                    time,
                    lambda node=node, policy=policy: self._switch(node, policy),
                    label=f"switch {node.name}" if labels else "",
                )

    def _switch(self, node: ClusterNode, policy: Union[str, SchedulingPolicy]) -> None:
        runtime = self.runtime
        # The switch changes the *policy*, not the allocation strategy: keep
        # the node's current moldable->rigid allocator unless an explicit
        # policy instance carries its own.
        if isinstance(policy, SchedulingPolicy):
            node.policy = policy
        else:
            node.policy = make_policy(policy, allocator=node.policy.allocator)
        runtime.trace.record(runtime.sim.now, "policy-switch", node.policy.name,
                             cluster=node.trace_name)
        runtime.try_start(node)
