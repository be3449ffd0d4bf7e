"""Classical list scheduling of rigid (or pre-allocated moldable) jobs.

List scheduling is the baseline every other policy is compared against: take
the jobs in some order and start each as early as possible.  The order is a
parameter (FCFS, LPT, SPT, largest-area, WSPT); LPT is the traditional choice
for makespan and WSPT for weighted completion times.

Moldable jobs are first frozen to rigid ones using a
:class:`repro.core.policies.base.MoldableAllocator` (``sequential`` by
default, i.e. the "Non Parallel" treatment of Figure 2 where every job runs
on a single processor).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.allocation import Schedule
from repro.core.job import Job, validate_jobs
from repro.core.policies.base import (
    MoldableAllocator,
    OfflineScheduler,
    list_schedule_rigid,
    sort_jobs,
)


class ListScheduler(OfflineScheduler):
    """Greedy list scheduling with a configurable job order.

    Parameters
    ----------
    order:
        One of ``"fcfs"``, ``"lpt"``, ``"spt"``, ``"area"``, ``"wspt"``.
    allocator:
        Strategy freezing moldable jobs into rigid ones; the default uses a
        single processor per moldable job so the policy degrades gracefully
        to the sequential baseline.
    """

    def __init__(
        self,
        order: str = "lpt",
        allocator: Optional[MoldableAllocator] = None,
    ) -> None:
        self.order = order
        self.allocator = allocator or MoldableAllocator("sequential")
        self.name = f"list-{order}"

    def schedule(
        self, jobs: Sequence[Job], machine_count: int, *, start_time: float = 0.0
    ) -> Schedule:
        jobs = validate_jobs(jobs)
        if not jobs:
            return Schedule(machine_count)
        ordered = sort_jobs(jobs, self.order)
        allocations = self.allocator.freeze(ordered, machine_count)
        return list_schedule_rigid(allocations, machine_count, start_time=start_time)
