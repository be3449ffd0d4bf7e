"""Bi-criteria scheduling (section 4.4): doubling-deadline batches.

The paper presents the approach of Hall, Schulz, Shmoys and Wein for
optimising the makespan and the sum of weighted completion times *at the same
time*: use a makespan procedure ``A_Cmax`` (performance ratio ``rho_Cmax``)
as a black box that, given a deadline ``d``, schedules within length
``rho_Cmax * d`` "as many tasks as possible (or the maximum weight)".
Running this procedure "iteratively in batches of doubling sizes (d, 2d, 4d,
...)" yields a schedule whose makespan is at most ``4 rho_Cmax * Cmax*`` and
whose sum of weighted completion times is within ``4 rho_Cmax`` of the
optimum.

This is the algorithm whose "simulated implementation of a variation"
produces **Figure 2** of the paper; the :mod:`repro.experiments.figure2`
module drives it exactly as described there (100 machines, parallel and
non-parallel jobs, criteria Cmax and sum w_i C_i).

Implementation notes
--------------------
* The maximum-weight selection of jobs fitting in a deadline is NP-hard in
  general; as in the original article a greedy selection is used: jobs are
  considered in weighted-shortest-processing-time order (weight over minimal
  work) and admitted while the aggregate area fits in ``d * m`` and their
  minimal runtime fits in ``d``.
* Release dates are supported in the natural batch fashion: a job is only
  considered once the current batch start has passed its release date
  (the on-line setting of section 4.4, "independent on-line moldable jobs").
* Each admitted batch is scheduled with a pluggable off-line makespan policy
  (default: the built-in deadline-aware procedure; see ``offline``).
* The WSPT key and each job's ``(min_runtime, min_work)`` bounds never
  change, so the jobs are sorted into WSPT order once per :meth:`schedule`
  and every batch is a single walk over the pending jobs: a job not yet
  released, or one that does not fit the deadline or the remaining area,
  stays pending (in order); any other job joins the batch.
* The batches are merged into one schedule, which is validated once at the
  end (release dates excluded, as for a batch alone).  That covers every
  batch on its own, plus overlaps between batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.core.allocation import Schedule
from repro.core.bounds import min_runtime, min_work
from repro.core.job import Job, validate_jobs
from repro.core.policies.base import (
    OfflineScheduler,
    ReleaseDateScheduler,
    SchedulerError,
)


@dataclass
class BatchRecord:
    """Bookkeeping of one doubling batch (exposed for tests and reports)."""

    index: int
    start: float
    deadline: float
    jobs: List[str] = field(default_factory=list)
    makespan: float = 0.0


class BiCriteriaScheduler(ReleaseDateScheduler):
    """Doubling-deadline batches for (Cmax, sum w_j C_j) bi-criteria scheduling.

    Parameters
    ----------
    offline:
        Off-line makespan procedure used inside each batch.  ``None`` (the
        default) uses the built-in *deadline-aware* batch builder: every
        selected moldable job receives its canonical allocation
        ``gamma(j, d)`` -- the smallest processor count meeting the current
        deadline ``d`` -- and the resulting rigid jobs are packed with LPT
        list scheduling.  This is the "ACmax procedure" role of the original
        algorithm: it keeps the work inflation minimal while guaranteeing
        that every job of the batch fits within the deadline.  Pass an
        explicit policy (e.g. :class:`~repro.core.policies.mrt.MRTScheduler`)
        to study other inner procedures.
    initial_deadline:
        First deadline ``d``.  When ``None`` it is derived from the instance:
        the smallest minimal runtime of the released jobs, which makes the
        first batches small and therefore favours small high-priority jobs
        (good for the weighted completion time).
    """

    def __init__(
        self,
        offline: Optional[OfflineScheduler] = None,
        *,
        initial_deadline: Optional[float] = None,
    ) -> None:
        self.offline = offline
        if initial_deadline is not None and initial_deadline <= 0:
            raise ValueError("initial_deadline must be > 0")
        self.initial_deadline = initial_deadline
        inner_name = offline.name if offline is not None else "deadline-aware"
        self.name = f"bicriteria({inner_name})"
        #: Records of the batches built by the last call to :meth:`schedule`.
        self.last_batches: List[BatchRecord] = []

    # -- main entry point -------------------------------------------------------
    def schedule(self, jobs: Sequence[Job], machine_count: int) -> Schedule:
        jobs = validate_jobs(jobs)
        self.last_batches = []
        if not jobs:
            return Schedule(machine_count)
        # Jobs are visited as indices into ``by_release``; ``pending`` holds
        # the unscheduled ones in WSPT order (see the implementation notes).
        by_release = sorted(jobs, key=lambda j: (j.release_date, j.name))
        bounds = [(min_runtime(job), min_work(job)) for job in by_release]
        if self.initial_deadline is not None:
            deadline = self.initial_deadline
        else:
            deadline = max(min([runtime for runtime, _ in bounds]), 1e-9)
        now = by_release[0].release_date
        wspt = [
            (area / max(job.weight, 1e-12), job.name)
            for job, (_, area) in zip(by_release, bounds)
        ]
        pending = sorted(range(len(by_release)), key=wspt.__getitem__)
        result = Schedule(machine_count)
        guard = 0
        max_batches = 4 * len(jobs) + 64  # generous; deadlines double so this is never hit
        while pending:
            guard += 1
            if guard > max_batches:
                raise SchedulerError("bi-criteria scheduler did not converge")
            # Greedy maximum-weight selection: released jobs in WSPT order are
            # admitted while their best runtime fits in the deadline and the
            # admitted area stays within ``deadline * machine_count``.
            horizon = now + 1e-12
            limit = deadline + 1e-12
            budget = deadline * machine_count + 1e-9
            used = 0.0
            released = False
            selected: List[int] = []
            rest: List[int] = []
            for i in pending:
                if not by_release[i].release_date <= horizon:
                    rest.append(i)
                    continue
                released = True
                runtime, area = bounds[i]
                if runtime > limit or used + area > budget:
                    rest.append(i)
                    continue
                selected.append(i)
                used += area
            if not released:
                now = min(by_release[i].release_date for i in pending)
                continue
            if not selected:
                # No released job fits in the current deadline: double it and
                # retry (the guard above bounds the number of doublings).
                deadline *= 2.0
                continue
            pending = rest
            batch = [by_release[i] for i in selected]
            batch_schedule = self._schedule_batch(batch, machine_count, now, deadline)
            # In-place union: the same rows, in the same order, as merging
            # the batch schedules one after the other.
            result.extend(batch_schedule)
            if batch_schedule.reservations:
                result.reservations = result.reservations + batch_schedule.reservations
            batch_makespan = batch_schedule.makespan()
            self.last_batches.append(
                BatchRecord(
                    index=len(self.last_batches),
                    start=now,
                    deadline=deadline,
                    jobs=[j.name for j in batch],
                    makespan=batch_makespan,
                )
            )
            now = max(batch_makespan, now)
            deadline *= 2.0
        # One check of the whole result covers every batch on its own (same
        # entries, same reservations) and the overlaps between batches.
        result.validate(check_release_dates=False)
        return result

    # -- helpers ---------------------------------------------------------------
    def _schedule_batch(
        self, selected: Sequence[Job], machine_count: int, now: float, deadline: float
    ) -> Schedule:
        """Schedule one batch starting at ``now``.

        With an explicit ``offline`` policy the batch is delegated to it.
        Otherwise the built-in deadline-aware procedure is used: each
        moldable job gets the smallest allocation whose runtime fits in
        ``deadline`` (minimal work inflation), rigid jobs keep their
        requirement, and the resulting rigid instance is packed with LPT
        list scheduling.
        """

        if self.offline is not None:
            return self.offline.schedule(selected, machine_count, start_time=now)
        from repro.core.job import MoldableJob, RigidJob  # local: avoid import cycle noise
        from repro.core.policies.base import list_schedule_rigid

        keyed: List[Tuple[float, str, Job, int]] = []
        for job in selected:
            if isinstance(job, RigidJob):
                nbproc = job.nbproc
            elif isinstance(job, MoldableJob):
                nbproc = job.canonical_allocation(deadline)
                if nbproc is None or nbproc > machine_count:
                    # Admission guarantees min_runtime(job) <= deadline, so a
                    # feasible allocation exists; cap it at the platform size
                    # and fall back to the fastest allocation otherwise.
                    upper = min(job.max_procs, machine_count)
                    nbproc = min(
                        range(job.min_procs, upper + 1),
                        key=lambda k: (job.runtime(k), k),
                    )
            else:
                raise SchedulerError(f"cannot schedule job of type {type(job)!r}")
            keyed.append((-job.runtime(nbproc), job.name, job, nbproc))
        # LPT order; job names are unique, so the (runtime, name) prefix
        # decides every comparison.
        keyed.sort()
        return list_schedule_rigid(
            [(job, nbproc) for _, _, job, nbproc in keyed], machine_count, start_time=now
        )
