"""Optimisation criteria (section 3 of the paper).

The paper reviews the criteria "usually used in the literature":

* minimisation of the **makespan** ``Cmax = max_j C_j``;
* minimisation of the **average completion time** ``sum_j C_j`` and its
  weighted variant ``sum_j w_j C_j``;
* minimisation of the **mean stretch** (sum of ``C_j - r_j``, i.e. the
  average response time between submission and completion);
* minimisation of the **maximum stretch** (the longest waiting time for a
  user);
* **maximum throughput** (steady state): number of elementary tasks
  completed per unit of time;
* minimisation of the **tardiness** family: number of late tasks, total
  tardiness, maximum tardiness (with respect to due dates);
* **normalised** versions of the above (with respect to the workload).

Every function takes a :class:`repro.core.allocation.Schedule` (or, where it
makes sense, raw completion-time mappings) and returns a float.  The
:class:`CriteriaReport` helper evaluates all of them at once -- it is what the
experiment harness stores for each simulation run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.allocation import Schedule, ScheduleColumns
from repro.core.job import MoldableJob


# ---------------------------------------------------------------------------
# Elementary criteria
# ---------------------------------------------------------------------------
# Each is a python ``sum``/``max``/loop over the schedule's columns, in row order.


def _flows(cols: ScheduleColumns) -> List[float]:
    return [end - job.release_date for job, end in zip(cols.jobs, cols.ends)]


def _tardiness(cols: ScheduleColumns) -> List[float]:
    return [
        0.0 if job.due_date is None else max(0.0, end - job.due_date)
        for job, end in zip(cols.jobs, cols.ends)
    ]


def makespan(schedule: Schedule) -> float:
    """``Cmax``: latest completion time over all the tasks."""

    return schedule.makespan()


def sum_completion_times(schedule: Schedule) -> float:
    """``sum_j C_j`` -- proportional to the average completion time."""

    return sum(schedule.columns.ends)


def mean_completion_time(schedule: Schedule) -> float:
    if len(schedule) == 0:
        return 0.0
    return sum_completion_times(schedule) / len(schedule)


def weighted_completion_time(schedule: Schedule) -> float:
    """``sum_j w_j C_j`` -- the criterion of Figure 2 (top)."""

    cols = schedule.columns
    return sum([job.weight * end for job, end in zip(cols.jobs, cols.ends)])


def mean_stretch(schedule: Schedule) -> float:
    """Mean of ``C_j - r_j`` -- what the paper calls the *mean stretch*.

    Note that the paper defines the stretch additively ("the sum of the
    difference between completion times and release dates"); the normalised
    variant (flow divided by processing time) is available as
    :func:`mean_normalized_stretch`.
    """

    if len(schedule) == 0:
        return 0.0
    return sum_stretch(schedule) / len(schedule)


def sum_stretch(schedule: Schedule) -> float:
    return sum(_flows(schedule.columns))


def max_stretch(schedule: Schedule) -> float:
    """Maximum of ``C_j - r_j`` -- "the longest waiting time for a user"."""

    flows = _flows(schedule.columns)
    return max(flows) if flows else 0.0


def _normalized_flows(cols: ScheduleColumns) -> List[float]:
    """``(C_j - r_j) / p_j^min``: best runtime if moldable, else the scheduled one."""

    return [
        flow / max(job.best_runtime() if isinstance(job, MoldableJob) else runtime, 1e-12)
        for job, runtime, flow in zip(cols.jobs, cols.runtimes, _flows(cols))
    ]


def mean_normalized_stretch(schedule: Schedule) -> float:
    """Mean of ``(C_j - r_j) / p_j^min`` (slowdown-style normalisation)."""

    if len(schedule) == 0:
        return 0.0
    total = 0.0
    for value in _normalized_flows(schedule.columns):
        total += value
    return total / len(schedule)


def max_normalized_stretch(schedule: Schedule) -> float:
    return max([0.0, *_normalized_flows(schedule.columns)])


def throughput(schedule: Schedule, horizon: Optional[float] = None) -> float:
    """Number of tasks completed per unit of time up to ``horizon``.

    With ``horizon=None`` the makespan is used, which gives the average
    throughput of the whole schedule.  The steady-state throughput studied in
    the DLT literature is exposed by :mod:`repro.core.dlt.steady_state`.
    """

    horizon = schedule.makespan() if horizon is None else horizon
    if horizon <= 0:
        return 0.0
    done = sum(1 for end in schedule.columns.ends if end <= horizon + 1e-12)
    return done / horizon


def total_tardiness(schedule: Schedule) -> float:
    return sum(_tardiness(schedule.columns))


def max_tardiness(schedule: Schedule) -> float:
    values = _tardiness(schedule.columns)
    return max(values) if values else 0.0


def late_job_count(schedule: Schedule) -> int:
    """Number of late tasks (tardiness > 0)."""

    return sum(1 for t in _tardiness(schedule.columns) if t > 1e-12)


def normalized_makespan(schedule: Schedule) -> float:
    """Makespan divided by the area lower bound ``W / m`` (>= 1 when packed)."""

    work = schedule.total_work()
    if work <= 0:
        return 0.0
    return schedule.makespan() * schedule.machine_count / work


# ---------------------------------------------------------------------------
# Aggregated report
# ---------------------------------------------------------------------------


@dataclass
class CriteriaReport:
    """All criteria of section 3 evaluated on one schedule."""

    n_jobs: int
    makespan: float
    sum_completion: float
    mean_completion: float
    weighted_completion: float
    mean_stretch: float
    max_stretch: float
    mean_normalized_stretch: float
    max_normalized_stretch: float
    throughput: float
    total_tardiness: float
    max_tardiness: float
    late_jobs: int
    utilization: float
    total_work: float

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "CriteriaReport":
        return cls(
            n_jobs=len(schedule),
            makespan=makespan(schedule),
            sum_completion=sum_completion_times(schedule),
            mean_completion=mean_completion_time(schedule),
            weighted_completion=weighted_completion_time(schedule),
            mean_stretch=mean_stretch(schedule),
            max_stretch=max_stretch(schedule),
            mean_normalized_stretch=mean_normalized_stretch(schedule),
            max_normalized_stretch=max_normalized_stretch(schedule),
            throughput=throughput(schedule),
            total_tardiness=total_tardiness(schedule),
            max_tardiness=max_tardiness(schedule),
            late_jobs=late_job_count(schedule),
            utilization=schedule.utilization(),
            total_work=schedule.total_work(),
        )

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_jobs": self.n_jobs,
            "makespan": self.makespan,
            "sum_completion": self.sum_completion,
            "mean_completion": self.mean_completion,
            "weighted_completion": self.weighted_completion,
            "mean_stretch": self.mean_stretch,
            "max_stretch": self.max_stretch,
            "mean_normalized_stretch": self.mean_normalized_stretch,
            "max_normalized_stretch": self.max_normalized_stretch,
            "throughput": self.throughput,
            "total_tardiness": self.total_tardiness,
            "max_tardiness": self.max_tardiness,
            "late_jobs": self.late_jobs,
            "utilization": self.utilization,
            "total_work": self.total_work,
        }


ALL_CRITERIA = {
    "makespan": makespan,
    "sum_completion": sum_completion_times,
    "mean_completion": mean_completion_time,
    "weighted_completion": weighted_completion_time,
    "mean_stretch": mean_stretch,
    "sum_stretch": sum_stretch,
    "max_stretch": max_stretch,
    "mean_normalized_stretch": mean_normalized_stretch,
    "max_normalized_stretch": max_normalized_stretch,
    "throughput": throughput,
    "total_tardiness": total_tardiness,
    "max_tardiness": max_tardiness,
    "normalized_makespan": normalized_makespan,
}
"""Registry mapping criterion names to their evaluation function."""
