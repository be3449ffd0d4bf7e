"""Common interfaces and helpers shared by the scheduling policies.

Two abstract base classes structure the policy zoo:

* :class:`OfflineScheduler` -- schedules a set of jobs that are all available
  at a common start time (release dates are ignored); this is the classical
  ``P | any | Cmax`` style problem of section 4.1;
* :class:`ReleaseDateScheduler` -- schedules jobs with release dates (the
  on-line problems of sections 4.2-4.4, solved here in the "simulated
  on-line" fashion: the policy only looks at a job once its release date has
  passed in the constructed schedule).

Both produce a :class:`repro.core.allocation.Schedule` on ``machine_count``
identical processors.  Heterogeneity and multi-cluster aspects are handled by
the simulators in :mod:`repro.simulation`, which call these policies per
cluster.

The module also provides :class:`MoldableAllocator` strategies that turn
moldable jobs into rigid ones (the "determine first the number of processors
[...] then solve the corresponding scheduling problem with rigid jobs"
decomposition described in section 4), and a common list-scheduling kernel
used by several policies.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from typing import List, Sequence, Tuple

from repro.core.allocation import Schedule
from repro.core.job import Job, MoldableJob, RigidJob


class SchedulerError(RuntimeError):
    """Raised when a policy cannot schedule the given instance."""


class OfflineScheduler(abc.ABC):
    """A policy for jobs that are all available at the same time."""

    #: Human-readable policy name used in reports and benchmark tables.
    name: str = "offline"

    @abc.abstractmethod
    def schedule(
        self, jobs: Sequence[Job], machine_count: int, *, start_time: float = 0.0
    ) -> Schedule:
        """Build a schedule of ``jobs`` on ``machine_count`` identical processors.

        ``start_time`` shifts the whole schedule (used by batch algorithms
        that re-run an off-line policy at the start of every batch).
        Release dates are *ignored* by off-line policies.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class ReleaseDateScheduler(abc.ABC):
    """A policy for jobs with release dates (on-line, simulated off-line)."""

    name: str = "online"

    @abc.abstractmethod
    def schedule(self, jobs: Sequence[Job], machine_count: int) -> Schedule:
        """Build a schedule respecting ``job.release_date`` for every job."""

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


# ---------------------------------------------------------------------------
# Moldable -> rigid allocation strategies
# ---------------------------------------------------------------------------


class MoldableAllocator:
    """Strategies choosing the processor count of each moldable job.

    The decomposition used throughout section 4 is: first fix the allocation
    (this object), then schedule the resulting rigid jobs (a rigid policy).
    """

    #: Known strategy names (see :meth:`allocate`).
    STRATEGIES = ("sequential", "min_runtime", "best_efficiency", "bounded_efficiency")

    def __init__(self, strategy: str = "bounded_efficiency", *, efficiency_threshold: float = 0.5):
        if strategy not in self.STRATEGIES:
            raise ValueError(
                f"unknown allocation strategy {strategy!r}; expected one of {self.STRATEGIES}"
            )
        if not 0 < efficiency_threshold <= 1:
            raise ValueError("efficiency_threshold must be in (0, 1]")
        self.strategy = strategy
        self.efficiency_threshold = efficiency_threshold

    def allocate(self, job: Job, machine_count: int) -> int:
        """Processor count chosen for ``job`` on a platform of ``machine_count``."""

        if isinstance(job, RigidJob):
            if job.nbproc > machine_count:
                raise SchedulerError(
                    f"rigid job {job.name!r} needs {job.nbproc} processors, "
                    f"platform only has {machine_count}"
                )
            return job.nbproc
        if not isinstance(job, MoldableJob):
            raise SchedulerError(f"cannot allocate job of type {type(job)!r}")
        # The candidates are read straight from the profile tuple:
        # ``runtimes[k - 1]`` for ``min_procs <= k <= upper`` is in range by
        # construction, so the per-call range check of ``job.runtime(k)`` is
        # skipped.  The float expressions are those of the per-k definition,
        # so the chosen allocation is bit-identical.
        runtimes = job.runtimes
        lo = job.min_procs
        upper = min(len(runtimes), machine_count)
        if lo > upper:
            raise SchedulerError(
                f"moldable job {job.name!r} needs at least {lo} "
                f"processors, platform only has {machine_count}"
            )
        if self.strategy == "sequential":
            return lo
        if self.strategy == "min_runtime":
            # Smallest (runtime, k) pair: the fastest allocation, ties to
            # the smallest processor count.
            return min(zip(runtimes[lo - 1 : upper], range(lo, upper + 1)))[1]
        if self.strategy == "best_efficiency":
            # Largest allocation whose efficiency is still at least the one
            # of the minimal allocation (i.e. no efficiency loss at all).
            limit = runtimes[lo - 1] * lo * (1 + 1e-9)
            for k in range(upper, lo - 1, -1):
                if k * runtimes[k - 1] <= limit:
                    return k
            return lo
        # bounded_efficiency: largest allocation keeping parallel efficiency
        # (relative to the minimal allocation) above the threshold.
        base_work = runtimes[lo - 1] * lo
        threshold = self.efficiency_threshold - 1e-12
        for k in range(upper, lo - 1, -1):
            if base_work / (k * runtimes[k - 1]) >= threshold:
                return k
        return lo

    def freeze(self, jobs: Sequence[Job], machine_count: int) -> List[Tuple[Job, int]]:
        """Allocate every job, returning (job, nbproc) pairs."""

        return [(job, self.allocate(job, machine_count)) for job in jobs]

    def __repr__(self) -> str:
        return (
            f"MoldableAllocator(strategy={self.strategy!r}, "
            f"efficiency_threshold={self.efficiency_threshold})"
        )


# ---------------------------------------------------------------------------
# Shared list-scheduling kernel
# ---------------------------------------------------------------------------


def list_schedule_rigid(
    allocations: Sequence[Tuple[Job, int]],
    machine_count: int,
    *,
    start_time: float = 0.0,
) -> Schedule:
    """Greedy list scheduling of (job, nbproc) pairs, in the given order.

    Jobs are started as early as possible in list order: the algorithm keeps
    the availability time of every processor and starts the next job of the
    list at the earliest instant where ``nbproc`` processors are
    simultaneously free; release dates are not read.  This is the classical
    Graham-style list algorithm generalised to multiprocessor tasks; it is
    the packing backend of most policies in this package.

    Each job takes the ``nbproc`` processors that come first in
    ``(free time, index)`` order, and its ``processors`` tuple lists them in
    that order.  The free list is kept as *runs*: ``times`` holds the
    distinct free times in ascending order and ``runs[i]`` the processors
    free at ``times[i]``, in ascending index order.  Reading the runs front
    to back is exactly the stable sort of the per-processor free times, so
    a job takes a prefix of the front runs and its completion time is
    bisected back in (merged into an equal-time run).  A job costs
    O(nbproc + runs) list work instead of a sort of all ``machine_count``
    times; the start and completion floats are the same values.
    """

    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    times: List[float] = [float(start_time)]
    runs: List[List[int]] = [list(range(machine_count))]
    schedule = Schedule(machine_count)
    for job, nbproc in allocations:
        if nbproc < 1 or nbproc > machine_count:
            raise SchedulerError(
                f"job {job.name!r}: allocation {nbproc} infeasible on "
                f"{machine_count} processors"
            )
        runtime = job.runtime(nbproc)
        # Earliest time at which `nbproc` processors are simultaneously
        # free: the time of the run the nbproc-th processor comes from.
        chosen: List[int] = []
        need = nbproc
        taken = 0
        while True:
            run = runs[taken]
            if need < len(run):
                chosen += run[:need]
                del run[:need]
                ready = times[taken]
                break
            chosen += run
            need -= len(run)
            taken += 1
            if not need:
                ready = times[taken - 1]
                break
        if taken:
            del times[:taken]
            del runs[:taken]
        start = max(ready, start_time)
        end = float(start + runtime)
        freed = sorted(chosen)
        if end == end:
            pos = bisect_left(times, end)
            merge = pos < len(times) and times[pos] == end
        else:
            # NaN sorts last in the stable order, after every number.
            pos = len(times)
            merge = pos > 0 and times[-1] != times[-1]
            pos -= merge
        if merge:
            run = runs[pos]
            run += freed
            run.sort()
        else:
            times.insert(pos, end)
            runs.insert(pos, freed)
        schedule.add(job, start, chosen, runtime)
    return schedule


def sort_jobs(jobs: Sequence[Job], order: str) -> List[Job]:
    """Sort jobs according to a named rule.

    Supported orders: ``"fcfs"`` (release date then name), ``"lpt"`` (longest
    processing time first), ``"spt"`` (shortest first), ``"area"`` (largest
    work first), ``"wspt"`` (weighted shortest processing time first, the
    single-machine-optimal order recalled in section 4.3).
    """

    def runtime_of(job: Job) -> float:
        if isinstance(job, RigidJob):
            return job.duration
        if isinstance(job, MoldableJob):
            return job.sequential_time()
        raise SchedulerError(f"cannot sort job of type {type(job)!r}")

    def work_of(job: Job) -> float:
        if isinstance(job, RigidJob):
            return job.duration * job.nbproc
        if isinstance(job, MoldableJob):
            return job.min_work()
        raise SchedulerError(f"cannot sort job of type {type(job)!r}")

    jobs = list(jobs)
    if order == "fcfs":
        return sorted(jobs, key=lambda j: (j.release_date, j.name))
    if order == "lpt":
        return sorted(jobs, key=lambda j: (-runtime_of(j), j.name))
    if order == "spt":
        return sorted(jobs, key=lambda j: (runtime_of(j), j.name))
    if order == "area":
        return sorted(jobs, key=lambda j: (-work_of(j), j.name))
    if order == "wspt":
        return sorted(jobs, key=lambda j: (work_of(j) / max(j.weight, 1e-12), j.name))
    raise ValueError(f"unknown job order {order!r}")
