"""Adapt schedule-constructing policies to the on-line policy protocol.

The policies of :mod:`repro.core.policies` (bi-criteria batches, shelves,
MRT, list scheduling, backfilling constructions, rigid/moldable mixes,
batch-online, reservations) build a whole :class:`Schedule` from a job set.
:class:`PlannedPolicy` turns any of them into a
:class:`~repro.core.policies.online.SchedulingPolicy` so the unified runtime
can drive them on-line:

* whenever the set of queued jobs changes, the wrapped scheduler plans the
  current queue on the full machine set;
* the plan induces a deterministic priority order -- planned start time,
  then job name -- and a per-job processor allocation;
* ``select`` dispatches strictly in plan order (FCFS over the plan, no
  bypassing), so the planned sequencing is respected and no job can be
  starved: the head of the plan always fits the full machine set and
  therefore eventually starts.

The adaptation is heuristic -- an event-driven execution cannot replay an
off-line schedule exactly once new jobs keep arriving -- but it preserves
each policy's *ordering intent*, which is what the paper's "which policy for
which application" question is about.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.job import Job
from repro.core.policies.base import MoldableAllocator
from repro.core.policies.online import SchedulingPolicy


class PlannedPolicy(SchedulingPolicy):
    """Run a schedule-constructing policy behind the on-line protocol."""

    def __init__(self, scheduler, allocator: Optional[MoldableAllocator] = None) -> None:
        super().__init__(allocator)
        self.scheduler = scheduler
        self.name = f"planned({scheduler.name})"
        self._plan_key: Optional[Tuple[str, ...]] = None
        #: job name -> (rank in the plan, planned processor count)
        self._plan: Dict[str, Tuple[int, int]] = {}

    def reset(self) -> None:
        """Invalidate the cached plan (a new simulation run is starting).

        Plans are keyed by queued job *names*; across runs the same names
        may describe different jobs, so the runtime resets the adapter
        before every run.
        """

        self._plan_key = None
        self._plan = {}

    def _replan(self, queue: Sequence[Job], machine_count: int) -> None:
        cols = self.scheduler.schedule(list(queue), machine_count).columns
        jobs, starts, nbprocs = cols.jobs, cols.starts, cols.nbprocs()
        order = sorted(range(len(jobs)), key=lambda i: (starts[i], jobs[i].name))
        self._plan = {jobs[i].name: (rank, nbprocs[i]) for rank, i in enumerate(order)}

    def select(self, queue: Sequence[Job], free: int, now: float, machine_count: int):
        key = tuple(sorted(job.name for job in queue))
        if key != self._plan_key:
            self._replan(queue, machine_count)
            self._plan_key = key
        plan = self._plan
        fallback = (len(plan), 0)
        ordered = sorted(queue, key=lambda job: (plan.get(job.name, fallback)[0], job.name))
        decisions: List[Tuple[Job, int]] = []
        remaining = free
        for job in ordered:
            nbproc = plan.get(job.name, fallback)[1]
            if nbproc < 1:  # job missing from the plan: allocate like FCFS
                nbproc = self.allocation(job, machine_count, remaining)
            if nbproc <= remaining:
                decisions.append((job, nbproc))
                remaining -= nbproc
            else:
                break  # respect the plan order strictly (no starvation)
        return decisions
