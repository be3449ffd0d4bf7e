"""Unified result model of the scheduling runtime.

Every runtime-backed simulation -- single cluster, centralized best-effort
grid, decentralized exchange -- returns one :class:`SimulationRecord`.  The
record always carries the per-cluster schedules, the per-cluster criteria,
the full event trace and the horizon; organisation-specific sections (Figure
2 ratios, best-effort bag statistics, migration and fairness accounting) are
filled in by the simulator that produced it and default to empty.

``mode`` tells which organisation produced the record.  A few derived
properties (``schedule``, ``criteria``, ``makespan``, ...) give the
single-cluster and best-effort views of the per-cluster sections.

:class:`RunRecord` is the uniform per-execution view: one completed job run
(name, cluster, start, runtime, processors), the row type the reporting
layer consumes regardless of which simulator ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.allocation import Schedule
from repro.core.criteria import CriteriaReport
from repro.metrics.fairness import FairnessReport
from repro.metrics.ratios import RatioReport
from repro.simulation.tracing import Trace

#: The three runtime organisations.
MODE_CLUSTER = "cluster"
MODE_CENTRALIZED = "grid-centralized"
MODE_DECENTRALIZED = "grid-decentralized"
MODES = (MODE_CLUSTER, MODE_CENTRALIZED, MODE_DECENTRALIZED)


class RunRecord:
    """One completed job execution, uniform across all organisations."""

    __slots__ = ("name", "cluster", "start", "runtime", "processors", "owner", "kind")

    def __init__(
        self,
        name: str,
        cluster: Optional[str],
        start: float,
        runtime: float,
        processors: Tuple[int, ...],
        owner: Optional[str] = None,
        kind: str = "local",
    ) -> None:
        self.name = name
        self.cluster = cluster
        self.start = start
        self.runtime = runtime
        self.processors = processors
        self.owner = owner
        self.kind = kind

    @property
    def end(self) -> float:
        return self.start + self.runtime

    @property
    def nbproc(self) -> int:
        return len(self.processors)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "job": self.name,
            "cluster": self.cluster,
            "start": self.start,
            "end": self.end,
            "runtime": self.runtime,
            "nbproc": self.nbproc,
            "owner": self.owner,
            "kind": self.kind,
        }

    def __repr__(self) -> str:
        return (
            f"RunRecord(name={self.name!r}, cluster={self.cluster!r}, "
            f"start={self.start!r}, runtime={self.runtime!r}, nbproc={self.nbproc})"
        )


@dataclass
class SimulationRecord:
    """Outcome of any runtime-backed simulation (all three organisations)."""

    #: One of :data:`MODES`.
    mode: str
    #: Total processor count of the simulated platform.
    machine_count: int
    #: Per-cluster schedule of the (local) jobs, keyed by cluster name.
    schedules: Dict[str, Schedule]
    #: Per-cluster criteria report, same keys as ``schedules``.
    cluster_criteria: Dict[str, CriteriaReport]
    #: Full event trace.
    trace: Trace
    #: Simulation end time.
    horizon: float
    #: Per-cluster policy name, same keys as ``schedules``.
    policies: Dict[str, str] = field(default_factory=dict)

    # -- single-cluster section (MODE_CLUSTER) ------------------------------
    #: Figure-2 style lower-bound ratios (single-cluster runs only).
    ratios: Optional[RatioReport] = None

    # -- centralized best-effort section (MODE_CENTRALIZED) -----------------
    #: Average utilization per cluster (local + best-effort work).
    utilization: Dict[str, float] = field(default_factory=dict)
    #: Completion time of each multi-parametric bag (None if unfinished).
    bag_completion: Dict[str, Optional[float]] = field(default_factory=dict)
    #: Number of best-effort runs completed per bag.
    runs_completed: Dict[str, int] = field(default_factory=dict)
    #: Number of best-effort kills (total).
    kills: int = 0
    #: Number of best-effort runs launched (including resubmissions).
    launches: int = 0

    # -- decentralized exchange section (MODE_DECENTRALIZED) ----------------
    migrations: int = 0
    migrated_jobs: List[str] = field(default_factory=list)
    fairness: Optional[FairnessReport] = None
    #: Flow time (C_j - r_j) of each completed job.
    flows: Dict[str, float] = field(default_factory=dict)
    #: Mean flow time over all jobs of the grid.
    mean_flow: float = 0.0
    #: Maximum flow time over all jobs.
    max_flow: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"unknown simulation mode {self.mode!r}; known: {MODES}")

    # -- uniform views -------------------------------------------------------
    @property
    def cluster_names(self) -> List[str]:
        return list(self.schedules)

    def runs(self) -> List[RunRecord]:
        """Every completed execution, ordered by (start, cluster, name).

        Local jobs come from the per-cluster schedules; completed
        best-effort runs (centralized organisation) are reconstructed from
        their start/complete trace events and tagged ``kind="best-effort"``
        -- killed runs are not listed, matching the server's completion
        accounting.
        """

        records = []
        for cluster, schedule in self.schedules.items():
            jobs, starts, runtimes, _, processors, offsets = schedule.columns
            records.extend(
                RunRecord(
                    name=job.name,
                    cluster=cluster or None,
                    start=start,
                    runtime=runtime,
                    processors=tuple(processors[lo:hi]),
                    owner=job.owner,
                )
                for job, start, runtime, lo, hi in zip(
                    jobs, starts, runtimes, offsets, offsets[1:]
                )
            )
        open_runs: Dict[Tuple[str, Optional[str]], Tuple[float, Tuple[int, ...]]] = {}
        for event in self.trace:
            if event.info != "best-effort":
                continue
            key = (event.job, event.cluster)
            if event.kind == "start":
                open_runs[key] = (event.time, event.processors)
            elif event.kind == "complete" and key in open_runs:
                start, processors = open_runs.pop(key)
                records.append(
                    RunRecord(
                        name=event.job,
                        cluster=event.cluster,
                        start=start,
                        runtime=event.time - start,
                        processors=processors,
                        kind="best-effort",
                    )
                )
        records.sort(key=lambda r: (r.start, r.cluster or "", r.name))
        return records

    def summary(self) -> Dict[str, Any]:
        """Headline metrics as one flat dict (the reporting row)."""

        out: Dict[str, Any] = {
            "mode": self.mode,
            "policy": "+".join(sorted(set(self.policies.values()))) or None,
            "machine_count": self.machine_count,
            "n_jobs": sum(len(s) for s in self.schedules.values()),
            "makespan": self.makespan,
            "horizon": self.horizon,
        }
        if self.mode == MODE_CLUSTER:
            report = next(iter(self.cluster_criteria.values()))
            out["utilization"] = report.utilization
            out["mean_stretch"] = report.mean_stretch
            if self.ratios is not None:
                out["makespan_ratio"] = self.ratios.makespan_ratio
                out["weighted_completion_ratio"] = self.ratios.weighted_completion_ratio
        if self.mode == MODE_CENTRALIZED:
            out["kills"] = self.kills
            out["launches"] = self.launches
            out["runs_completed"] = self.total_runs_completed
            out["grid_throughput"] = self.grid_throughput()
        if self.mode == MODE_DECENTRALIZED:
            out["migrations"] = self.migrations
            out["mean_flow"] = self.mean_flow
            out["max_flow"] = self.max_flow
            if self.fairness is not None:
                out["fairness_on_work"] = self.fairness.fairness_on_work
        return out

    # -- derived views ----------------------------------------------------
    @property
    def schedule(self) -> Schedule:
        """The single-cluster schedule (single-cluster records only)."""

        if len(self.schedules) != 1:
            raise AttributeError(
                f"record has {len(self.schedules)} per-cluster schedules; "
                "use .schedules"
            )
        return next(iter(self.schedules.values()))

    @property
    def criteria(self):
        """Single report for cluster records, per-cluster dict for grids."""

        if self.mode == MODE_CLUSTER:
            return next(iter(self.cluster_criteria.values()))
        return self.cluster_criteria

    @property
    def policy(self) -> str:
        """The policy name (single-policy records); joined names otherwise."""

        names = sorted(set(self.policies.values()))
        return names[0] if len(names) == 1 else "+".join(names)

    @property
    def makespan(self) -> float:
        if self.mode == MODE_CLUSTER:
            return next(iter(self.cluster_criteria.values())).makespan
        return max((s.makespan() for s in self.schedules.values()), default=0.0)

    @property
    def total_runs_completed(self) -> int:
        return sum(self.runs_completed.values())

    def grid_throughput(self) -> float:
        """Best-effort runs completed per unit of time."""

        if self.horizon <= 0:
            return 0.0
        return self.total_runs_completed / self.horizon
