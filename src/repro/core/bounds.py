"""Lower bounds used to compute performance ratios.

The paper's Figure 2 plots the *ratio* of the criterion achieved by the
bi-criteria algorithm over (an estimate of) the optimal value.  Since the
optimum is intractable, the standard practice -- which the dual-approximation
analysis of section 4.1 also relies on -- is to compare against easily
computable lower bounds:

* for the makespan of moldable jobs on ``m`` identical processors

  ``LB_Cmax = max( max_j p_j^min , (1/m) sum_j W_j^min , max_j r_j + p_j^min )``

  where ``p_j^min`` is the best achievable runtime of job ``j`` and
  ``W_j^min`` its minimal work;

* for the (weighted) sum of completion times, the classical single-machine
  relaxation: the whole platform is viewed as one machine of speed ``m``,
  jobs become sequential with processing time ``W_j^min / m``, and the
  optimal order is WSPT (weighted shortest processing time first).  A second
  bound -- each job cannot complete before ``r_j + p_j^min`` -- is combined
  with it by taking, for each job, the larger of its two completion-time
  estimates.

These bounds are deliberately conservative; ratios reported by the benchmarks
are therefore *upper estimates* of the true approximation factor, exactly as
in the paper.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple

from repro.core.job import Job, MoldableJob, ParametricSweep, RigidJob, DivisibleJob


def min_runtime(job: Job) -> float:
    """Best achievable runtime of a job (critical-path style bound)."""

    if isinstance(job, MoldableJob):
        return job.best_runtime()
    if isinstance(job, RigidJob):
        return job.duration
    if isinstance(job, ParametricSweep):
        return job.run_time
    if isinstance(job, DivisibleJob):
        return 0.0  # arbitrarily divisible: no intrinsic critical path
    raise TypeError(f"unsupported job type {type(job)!r}")


def min_work(job: Job) -> float:
    """Smallest achievable work (processor-time area) of a job."""

    if isinstance(job, MoldableJob):
        return job.min_work()
    if isinstance(job, RigidJob):
        return job.nbproc * job.duration
    if isinstance(job, ParametricSweep):
        return job.total_work
    if isinstance(job, DivisibleJob):
        return job.load
    raise TypeError(f"unsupported job type {type(job)!r}")


# The bounds below share one list of per-job ``(min_runtime, min_work)``
# pairs, so a report asking for all of them computes each pair once
# (:func:`criteria_lower_bounds`).  Every sum is python's ``sum()`` over
# the jobs in the same order as the per-bound definition, so the floats do
# not depend on which entry point computed them.


def _job_bounds(jobs: Iterable[Job]) -> List[Tuple[float, float]]:
    return [(min_runtime(job), min_work(job)) for job in jobs]


def _makespan_lb(jobs: List[Job], bounds: List[Tuple[float, float]], machine_count: int) -> float:
    if not jobs:
        return 0.0
    critical = max(p for p, _ in bounds)
    area = sum(w for _, w in bounds) / machine_count
    release = max(job.release_date + p for job, (p, _) in zip(jobs, bounds))
    return max(critical, area, release)


def _completion_lbs(
    jobs: List[Job], bounds: List[Tuple[float, float]], machine_count: int
) -> List[Tuple[Job, float]]:
    keys = [(w / max(job.weight, 1e-12), job.name) for job, (_, w) in zip(jobs, bounds)]
    out: List[Tuple[Job, float]] = []
    elapsed = 0.0
    for i in sorted(range(len(jobs)), key=keys.__getitem__):
        job = jobs[i]
        p, w = bounds[i]
        elapsed += w / machine_count
        out.append((job, max(elapsed, job.release_date + p)))
    return out


def _sum_completion_lb(
    jobs: List[Job], bounds: List[Tuple[float, float]], machine_count: int
) -> float:
    keys = [(w, job.name) for job, (_, w) in zip(jobs, bounds)]
    total = 0.0
    elapsed = 0.0
    for i in sorted(range(len(jobs)), key=keys.__getitem__):
        p, w = bounds[i]
        elapsed += w / machine_count
        total += max(elapsed, jobs[i].release_date + p)
    return total


def _stretch_lb(bounds: List[Tuple[float, float]]) -> float:
    if not bounds:
        return 0.0
    return sum(p for p, _ in bounds) / len(bounds)


def makespan_lower_bound(jobs: Iterable[Job], machine_count: int) -> float:
    """Lower bound on ``Cmax`` for any schedule of ``jobs`` on ``machine_count`` processors."""

    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    jobs = list(jobs)
    return _makespan_lb(jobs, _job_bounds(jobs), machine_count)


def completion_time_lower_bounds(
    jobs: Iterable[Job], machine_count: int
) -> List[Tuple[Job, float]]:
    """Per-job lower bounds on completion times (squashed-area relaxation).

    Jobs are relaxed to a single machine of speed ``machine_count`` and
    ordered by WSPT on their minimal work.  The completion time of job ``j``
    in that relaxed schedule, combined with the trivial bound
    ``r_j + p_j^min``, lower-bounds ``C_j`` in *some* optimal-ish sense:
    the resulting ``sum w_j C_j`` is a valid lower bound on the optimum of
    the weighted completion time criterion for the off-line problem without
    release dates, and a standard heuristic bound when release dates are
    present (the release-date term keeps it safe for the dominant jobs).
    """

    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    jobs = list(jobs)
    return _completion_lbs(jobs, _job_bounds(jobs), machine_count)


def weighted_completion_lower_bound(jobs: Iterable[Job], machine_count: int) -> float:
    """Lower bound on ``sum_j w_j C_j``."""

    return sum(job.weight * c for job, c in completion_time_lower_bounds(jobs, machine_count))


def sum_completion_lower_bound(jobs: Iterable[Job], machine_count: int) -> float:
    """Lower bound on ``sum_j C_j`` (unweighted)."""

    jobs = list(jobs)
    return _sum_completion_lb(jobs, _job_bounds(jobs), machine_count)


def stretch_lower_bound(jobs: Iterable[Job]) -> float:
    """Trivial lower bound on the mean stretch: each job needs at least ``p_j^min``."""

    return _stretch_lb(_job_bounds(jobs))


def criteria_lower_bounds(
    jobs: Iterable[Job], machine_count: int
) -> Tuple[float, float, float, float]:
    """The four bounds above from one pass over the jobs.

    Returns ``(makespan, weighted_completion, sum_completion, mean_stretch)``
    lower bounds, equal to the four single-bound functions.
    """

    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    jobs = list(jobs)
    bounds = _job_bounds(jobs)
    return (
        _makespan_lb(jobs, bounds, machine_count),
        sum(job.weight * c for job, c in _completion_lbs(jobs, bounds, machine_count)),
        _sum_completion_lb(jobs, bounds, machine_count),
        _stretch_lb(bounds),
    )


def divisible_makespan_lower_bound(
    total_load: float,
    worker_rates: Sequence[float],
) -> float:
    """Lower bound on the makespan of a divisible load: perfect sharing, no comms."""

    if total_load < 0:
        raise ValueError("total_load must be >= 0")
    total_rate = sum(worker_rates)
    if total_rate <= 0:
        raise ValueError("at least one worker with positive rate is required")
    return total_load / total_rate


def performance_ratio(value: float, lower_bound: float) -> float:
    """Ratio ``value / lower_bound`` guarded against degenerate bounds."""

    if lower_bound <= 0:
        if value <= 0:
            return 1.0
        return math.inf
    return value / lower_bound
