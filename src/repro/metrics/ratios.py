"""Performance ratios of a schedule against lower bounds.

Figure 2 of the paper plots, for each simulated instance, the ratio between
the value achieved by the bi-criteria algorithm and the optimal value for the
two criteria ``Cmax`` and ``sum w_i C_i``.  Since the optima are intractable,
this module (like the paper's simulation) uses the lower bounds of
:mod:`repro.core.bounds`; reported ratios are therefore upper estimates of
the true ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.core.allocation import Schedule
from repro.core.bounds import criteria_lower_bounds, performance_ratio
from repro.core.criteria import (
    makespan,
    mean_stretch,
    sum_completion_times,
    weighted_completion_time,
)
from repro.core.job import Job


@dataclass(frozen=True)
class RatioReport:
    """Achieved values, lower bounds and ratios for the main criteria."""

    n_jobs: int
    machine_count: int
    makespan: float
    makespan_bound: float
    makespan_ratio: float
    weighted_completion: float
    weighted_completion_bound: float
    weighted_completion_ratio: float
    sum_completion: float
    sum_completion_bound: float
    sum_completion_ratio: float
    mean_stretch: float
    mean_stretch_bound: float
    mean_stretch_ratio: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "n_jobs": self.n_jobs,
            "machine_count": self.machine_count,
            "makespan": self.makespan,
            "makespan_bound": self.makespan_bound,
            "makespan_ratio": self.makespan_ratio,
            "weighted_completion": self.weighted_completion,
            "weighted_completion_bound": self.weighted_completion_bound,
            "weighted_completion_ratio": self.weighted_completion_ratio,
            "sum_completion": self.sum_completion,
            "sum_completion_bound": self.sum_completion_bound,
            "sum_completion_ratio": self.sum_completion_ratio,
            "mean_stretch": self.mean_stretch,
            "mean_stretch_bound": self.mean_stretch_bound,
            "mean_stretch_ratio": self.mean_stretch_ratio,
        }


def schedule_ratios(
    schedule: Schedule,
    jobs: Optional[Sequence[Job]] = None,
    *,
    machine_count: Optional[int] = None,
) -> RatioReport:
    """Compute the Figure-2 style ratios of a schedule.

    ``jobs`` defaults to the jobs present in the schedule; pass the original
    instance explicitly when some jobs were rejected.
    """

    jobs = list(jobs) if jobs is not None else schedule.jobs
    machine_count = machine_count or schedule.machine_count

    cmax_lb, wc_lb, sc_lb, stretch_lb = criteria_lower_bounds(jobs, machine_count)
    cmax = makespan(schedule)
    wc = weighted_completion_time(schedule)
    sc = sum_completion_times(schedule)
    stretch = mean_stretch(schedule)

    return RatioReport(
        n_jobs=len(jobs),
        machine_count=machine_count,
        makespan=cmax,
        makespan_bound=cmax_lb,
        makespan_ratio=performance_ratio(cmax, cmax_lb),
        weighted_completion=wc,
        weighted_completion_bound=wc_lb,
        weighted_completion_ratio=performance_ratio(wc, wc_lb),
        sum_completion=sc,
        sum_completion_bound=sc_lb,
        sum_completion_ratio=performance_ratio(sc, sc_lb),
        mean_stretch=stretch,
        mean_stretch_bound=stretch_lb,
        mean_stretch_ratio=performance_ratio(stretch, stretch_lb),
    )
