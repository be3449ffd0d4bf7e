"""Fairness between communities (section 5.2).

"Another important point is to guarantee a kind of fairness between the
different communities.  Each computing resource was bought by its respective
community [...] so we should make sure that making it available to others
does not make them loose too much."

Two families of metrics are provided:

* resource usage per community (processor-time consumed, jobs completed,
  mean stretch of its jobs), computed either from a
  :class:`repro.core.allocation.Schedule` or from a simulation
  :class:`repro.simulation.tracing.Trace`;
* Jain's fairness index over the per-community normalised usage (1 = all
  communities treated equally, 1/k = one community gets everything).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence

from repro.core.allocation import Schedule


def community_usage(schedule: Schedule) -> Dict[str, Dict[str, float]]:
    """Per-community usage statistics of a schedule.

    Jobs without an owner are grouped under ``"(unowned)"``.
    Each entry reports: ``jobs`` (count), ``work`` (processor-time),
    ``mean_flow`` (mean of ``C_j - r_j``) and ``max_flow``.
    """

    stats: Dict[str, Dict[str, float]] = {}
    cols = schedule.columns
    for job, runtime, end, nbproc in zip(cols.jobs, cols.runtimes, cols.ends, cols.nbprocs()):
        owner = job.owner or "(unowned)"
        bucket = stats.setdefault(
            owner, {"jobs": 0.0, "work": 0.0, "mean_flow": 0.0, "max_flow": 0.0}
        )
        flow = end - job.release_date
        bucket["jobs"] += 1
        bucket["work"] += nbproc * runtime
        bucket["mean_flow"] += flow
        bucket["max_flow"] = max(bucket["max_flow"], flow)
    for bucket in stats.values():
        if bucket["jobs"] > 0:
            bucket["mean_flow"] /= bucket["jobs"]
    return stats


def jain_fairness_index(values: Sequence[float]) -> float:
    """Jain's fairness index ``(sum x)^2 / (n * sum x^2)`` in ``(0, 1]``."""

    values = [max(0.0, float(v)) for v in values]
    if not values:
        return 1.0
    total = sum(values)
    squares = sum(v * v for v in values)
    if squares <= 0:
        return 1.0
    return (total * total) / (len(values) * squares)


@dataclass(frozen=True)
class FairnessReport:
    """Summary of inter-community fairness for one experiment."""

    usage: Dict[str, Dict[str, float]]
    fairness_on_work: float
    fairness_on_flow: float
    worst_community: Optional[str]

    def as_dict(self) -> Dict[str, object]:
        return {
            "usage": self.usage,
            "fairness_on_work": self.fairness_on_work,
            "fairness_on_flow": self.fairness_on_flow,
            "worst_community": self.worst_community,
        }


def fairness_report(
    schedule: Schedule,
    *,
    entitled_shares: Optional[Mapping[str, float]] = None,
) -> FairnessReport:
    """Fairness report for a schedule.

    ``entitled_shares`` maps each community to the fraction of the platform it
    owns (e.g. the processor count of its cluster divided by the grid size).
    When provided, the usage of each community is normalised by its share
    before computing the fairness index, so a community consuming exactly its
    own resources scores 1.
    """

    usage = community_usage(schedule)
    if not usage:
        return FairnessReport(usage, 1.0, 1.0, None)
    communities = sorted(usage)
    works = []
    flows = []
    for name in communities:
        work = usage[name]["work"]
        if entitled_shares and name in entitled_shares and entitled_shares[name] > 0:
            work = work / entitled_shares[name]
        works.append(work)
        # Lower flow is better; invert so that "more is better" for the index.
        mean_flow = usage[name]["mean_flow"]
        flows.append(1.0 / mean_flow if mean_flow > 0 else 1.0)
    worst = max(communities, key=lambda name: usage[name]["mean_flow"])
    return FairnessReport(
        usage=usage,
        fairness_on_work=jain_fairness_index(works),
        fairness_on_flow=jain_fairness_index(flows),
        worst_community=worst,
    )
