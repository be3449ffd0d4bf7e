"""The on-line scheduling-policy protocol and the basic queue policies.

:class:`SchedulingPolicy` is the single policy interface of the unified
scheduling runtime (:mod:`repro.runtime`): at every scheduling point
(arrival or completion) the runtime asks the policy which waiting jobs to
start on the currently free processors.  Everything else -- single cluster,
centralized best-effort grid, decentralized exchange -- is runtime
configuration, so any policy implementing this protocol runs on every
platform shape.

The three queue policies (FCFS, aggressive backfilling, smallest-first)
live here, and :func:`repro.core.policies.registry.make_policy` builds them
by name.  They are stateless: one instance may serve any number of runs.
The schedule-constructing policies of :mod:`repro.core.policies` run
off-line instead, through
:data:`repro.core.policies.registry.OFFLINE_SCHEDULERS`.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from repro.core.job import Job, MoldableJob, RigidJob
from repro.core.policies.base import MoldableAllocator


class SchedulingPolicy:
    """Decides which waiting jobs to start when processors are free.

    ``select(queue, free, now, machine_count)`` returns a list of
    ``(job, nbproc)`` pairs to start immediately; the returned jobs must be
    pairwise distinct members of ``queue`` and their total processor demand
    must not exceed ``free``.  Deterministic implementations must order
    equal-priority jobs by ``(criterion, job.name)`` -- never by container
    iteration order alone -- so simulations are reproducible regardless of
    how the queue was populated.
    """

    name = "abstract"

    def __init__(self, allocator: Optional[MoldableAllocator] = None) -> None:
        self.allocator = allocator or MoldableAllocator("bounded_efficiency")

    def allocation(self, job: Job, machine_count: int, free: int) -> int:
        """Processor count for ``job``, never exceeding the currently free count."""

        nbproc = self.allocator.allocate(job, machine_count)
        if isinstance(job, MoldableJob):
            nbproc = max(job.min_procs, min(nbproc, free)) if free >= job.min_procs else nbproc
        return nbproc

    def select(
        self, queue: Sequence[Job], free: int, now: float, machine_count: int
    ) -> List[Tuple[Job, int]]:
        raise NotImplementedError


class FifoPolicy(SchedulingPolicy):
    """Strict first-come-first-served: the head of the queue blocks everyone."""

    name = "fifo"

    def select(self, queue: Sequence[Job], free: int, now: float, machine_count: int):
        decisions = []
        remaining = free
        for job in queue:
            nbproc = self.allocation(job, machine_count, remaining)
            if nbproc <= remaining:
                decisions.append((job, nbproc))
                remaining -= nbproc
            else:
                break  # FCFS: do not bypass the blocked head of queue
        return decisions


class BackfillPolicy(SchedulingPolicy):
    """FCFS with aggressive backfilling: later jobs may use leftover processors.

    Unlike the clairvoyant EASY implementation of
    :mod:`repro.core.policies.backfilling` this on-line policy does not
    compute a shadow time; it simply lets any queued job that fits in the
    currently free processors start.  It therefore favours utilisation at the
    possible expense of large jobs -- the simulation benchmarks quantify this
    trade-off.
    """

    name = "backfill"

    def select(self, queue: Sequence[Job], free: int, now: float, machine_count: int):
        decisions = []
        remaining = free
        for job in queue:
            nbproc = self.allocation(job, machine_count, remaining)
            if nbproc <= remaining:
                decisions.append((job, nbproc))
                remaining -= nbproc
            if remaining == 0:
                break
        return decisions


class SmallestFirstPolicy(SchedulingPolicy):
    """Start the smallest waiting jobs first (good for the mean stretch)."""

    name = "smallest-first"

    def select(self, queue: Sequence[Job], free: int, now: float, machine_count: int):
        def key(job: Job) -> Tuple[float, str]:
            if isinstance(job, MoldableJob):
                return (job.min_work(), job.name)
            if isinstance(job, RigidJob):
                return (job.duration * job.nbproc, job.name)
            return (math.inf, job.name)

        decisions = []
        remaining = free
        for job in sorted(queue, key=key):
            nbproc = self.allocation(job, machine_count, remaining)
            if nbproc <= remaining:
                decisions.append((job, nbproc))
                remaining -= nbproc
        return decisions
