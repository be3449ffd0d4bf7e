"""Schedules: allocations, start times, validation and Gantt export.

A :class:`Schedule` is the common output format of every Parallel-Task policy
in :mod:`repro.core.policies` and the common input of every criterion in
:mod:`repro.core.criteria`.  It stores one :class:`ScheduledJob` per job:
the start time, the set of processor indices used, and the resulting
completion time.

The class knows how to *validate* itself (no processor runs two jobs at the
same time, release dates and reservations are respected, allocations match
the job model), which the test-suite and the simulators use extensively.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.job import Job, MoldableJob, RigidJob


@dataclass(frozen=True)
class Allocation:
    """A set of processors assigned to a job, with the resulting runtime."""

    processors: Tuple[int, ...]
    runtime: float

    def __post_init__(self) -> None:
        if not self.processors:
            raise ValueError("empty allocation")
        if len(set(self.processors)) != len(self.processors):
            raise ValueError("duplicate processors in allocation")
        if self.runtime <= 0:
            raise ValueError("runtime must be > 0")

    @property
    def nbproc(self) -> int:
        return len(self.processors)

    @property
    def work(self) -> float:
        return self.nbproc * self.runtime


@dataclass(frozen=True)
class ScheduledJob:
    """A job placed in time and space."""

    job: Job
    start: float
    allocation: Allocation

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"job {self.job.name!r}: negative start time")

    @property
    def completion(self) -> float:
        return self.start + self.allocation.runtime

    @property
    def nbproc(self) -> int:
        return self.allocation.nbproc

    @property
    def processors(self) -> Tuple[int, ...]:
        return self.allocation.processors

    def overlaps(self, other: "ScheduledJob") -> bool:
        """True when the two placements overlap in time *and* share a processor."""

        if self.completion <= other.start + 1e-12:
            return False
        if other.completion <= self.start + 1e-12:
            return False
        return bool(set(self.processors) & set(other.processors))


@dataclass(frozen=True)
class Reservation:
    """A block of processors made unavailable during a time window (section 5.1)."""

    processors: Tuple[int, ...]
    start: float
    end: float
    label: str = "reservation"

    def __post_init__(self) -> None:
        if self.end <= self.start:
            raise ValueError("reservation must have end > start")
        if not self.processors:
            raise ValueError("reservation must block at least one processor")

    def blocks(self, processor: int, start: float, end: float) -> bool:
        """True if the reservation makes ``processor`` unavailable in [start, end)."""

        if processor not in self.processors:
            return False
        return not (end <= self.start + 1e-12 or start >= self.end - 1e-12)


class Schedule:
    """A complete schedule on ``machine_count`` identical processors.

    The container is mutable while a policy builds it (via :meth:`add`) and
    is usually validated once at the end with :meth:`validate`.
    """

    def __init__(
        self,
        machine_count: int,
        *,
        reservations: Sequence[Reservation] = (),
    ) -> None:
        if machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        self.machine_count = machine_count
        self.reservations: Tuple[Reservation, ...] = tuple(reservations)
        self._entries: Dict[str, ScheduledJob] = {}

    # -- construction ----------------------------------------------------
    def add(
        self,
        job: Job,
        start: float,
        processors: Sequence[int],
        runtime: Optional[float] = None,
    ) -> ScheduledJob:
        """Place ``job`` at ``start`` on ``processors``.

        ``runtime`` defaults to ``job.runtime(len(processors))`` which is the
        correct value for rigid and moldable jobs; simulators that model
        heterogeneous speeds pass the effective runtime explicitly.
        """

        if job.name in self._entries:
            raise ValueError(f"job {job.name!r} already scheduled")
        processors = tuple(map(int, processors))
        self._check_processors(processors)
        if runtime is None:
            runtime = job.runtime(len(processors))
        entry = ScheduledJob(job=job, start=start, allocation=Allocation(processors, runtime))
        self._entries[job.name] = entry
        return entry

    def add_scheduled(self, entry: ScheduledJob) -> None:
        if entry.job.name in self._entries:
            raise ValueError(f"job {entry.job.name!r} already scheduled")
        self._check_processors(entry.allocation.processors)
        self._entries[entry.job.name] = entry

    def _check_processors(self, processors: Tuple[int, ...]) -> None:
        """Raise unless every index lies in ``[0, machine_count)``."""

        if processors and 0 <= min(processors) and max(processors) < self.machine_count:
            return
        for p in processors:
            if not 0 <= p < self.machine_count:
                raise ValueError(
                    f"processor index {p} outside platform of size {self.machine_count}"
                )

    def remove(self, job_name: str) -> ScheduledJob:
        return self._entries.pop(job_name)

    def shift(self, delta: float) -> "Schedule":
        """Return a copy of the schedule with every start time shifted by ``delta``."""

        out = Schedule(self.machine_count, reservations=self.reservations)
        for entry in self._entries.values():
            out.add_scheduled(
                ScheduledJob(
                    job=entry.job,
                    start=entry.start + delta,
                    allocation=entry.allocation,
                )
            )
        return out

    def merge(self, other: "Schedule") -> "Schedule":
        """Union of two schedules on the same platform (jobs must be disjoint)."""

        if other.machine_count != self.machine_count:
            raise ValueError("cannot merge schedules on different platform sizes")
        out = Schedule(self.machine_count, reservations=self.reservations + other.reservations)
        for entry in self._entries.values():
            out.add_scheduled(entry)
        for entry in other._entries.values():
            out.add_scheduled(entry)
        return out

    # -- accessors -------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, job_name: str) -> bool:
        return job_name in self._entries

    def __getitem__(self, job_name: str) -> ScheduledJob:
        return self._entries[job_name]

    def __iter__(self):
        return iter(self._entries.values())

    @property
    def jobs(self) -> List[Job]:
        return [entry.job for entry in self._entries.values()]

    @property
    def entries(self) -> List[ScheduledJob]:
        return list(self._entries.values())

    def completion_times(self) -> Dict[str, float]:
        return {name: e.completion for name, e in self._entries.items()}

    def makespan(self) -> float:
        """Latest completion time, 0 for an empty schedule."""

        if not self._entries:
            return 0.0
        return max(e.completion for e in self._entries.values())

    def total_work(self) -> float:
        return sum(e.allocation.work for e in self._entries.values())

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of the processor-time area actually used up to ``horizon``."""

        horizon = self.makespan() if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        used = 0.0
        for e in self._entries.values():
            used += e.nbproc * max(0.0, min(e.completion, horizon) - min(e.start, horizon))
        return used / (self.machine_count * horizon)

    # -- validation ------------------------------------------------------
    def validate(self, *, check_release_dates: bool = True) -> None:
        """Raise :class:`ScheduleError` if the schedule is infeasible.

        Checks performed:

        * every allocation fits on the platform,
        * rigid jobs got exactly their required processor count and moldable
          jobs an admissible one,
        * no two jobs overlap on a processor,
        * no job overlaps a reservation,
        * (optionally) no job starts before its release date.
        """

        entries = sorted(self._entries.values(), key=lambda e: e.start)
        reservations = self.reservations
        counts: List[int] = []
        for entry in entries:
            job = entry.job
            processors = entry.allocation.processors
            nbproc = len(processors)
            counts.append(nbproc)
            if check_release_dates and entry.start < job.release_date - 1e-9:
                raise ScheduleError(
                    f"job {job.name!r} starts at {entry.start} before its "
                    f"release date {job.release_date}"
                )
            if isinstance(job, RigidJob) and nbproc != job.nbproc:
                raise ScheduleError(
                    f"rigid job {job.name!r} scheduled on {nbproc} "
                    f"processors, requires {job.nbproc}"
                )
            if isinstance(job, MoldableJob):
                if not job.min_procs <= nbproc <= job.max_procs:
                    raise ScheduleError(
                        f"moldable job {job.name!r} scheduled on {nbproc} "
                        f"processors, admissible range is "
                        f"[{job.min_procs}, {job.max_procs}]"
                    )
            for reservation in reservations:
                for p in processors:
                    if reservation.blocks(p, entry.start, entry.completion):
                        raise ScheduleError(
                            f"job {job.name!r} overlaps reservation "
                            f"{reservation.label!r} on processor {p}"
                        )
        if not entries:
            return
        # Overlap detection: one vectorized per-processor sweep over all
        # (processor, start, completion) slots at once.  Sorting slots by
        # (processor, start) and comparing adjacent same-processor pairs is
        # the classical interval argument: with intervals sorted by start,
        # any overlap implies an *adjacent* overlap.  The slow per-pair loop
        # below only re-runs when a violation was detected, to produce the
        # same diagnostic as before.
        procs = np.fromiter(
            chain.from_iterable([entry.allocation.processors for entry in entries]),
            dtype=np.int64,
            count=sum(counts),
        )
        starts = np.repeat(np.array([entry.start for entry in entries]), counts)
        ends = np.repeat(np.array([entry.completion for entry in entries]), counts)
        order = np.lexsort((starts, procs))
        p_sorted = procs[order]
        s_sorted = starts[order]
        e_sorted = ends[order]
        same = p_sorted[1:] == p_sorted[:-1]
        if bool((same & (s_sorted[1:] < e_sorted[:-1] - 1e-9)).any()):
            per_proc: Dict[int, List[ScheduledJob]] = {}
            for entry in entries:
                for p in entry.processors:
                    per_proc.setdefault(p, []).append(entry)
            for p, plist in per_proc.items():
                plist.sort(key=lambda e: e.start)
                for prev, nxt in zip(plist, plist[1:]):
                    if nxt.start < prev.completion - 1e-9:
                        raise ScheduleError(
                            f"jobs {prev.job.name!r} and {nxt.job.name!r} overlap "
                            f"on processor {p} "
                            f"([{prev.start}, {prev.completion}) vs "
                            f"[{nxt.start}, {nxt.completion}))"
                        )
            raise AssertionError(
                "vectorized overlap sweep flagged a violation the per-pair "
                "scan did not find"
            )  # pragma: no cover - guards a checker mismatch

    def is_valid(self, *, check_release_dates: bool = True) -> bool:
        try:
            self.validate(check_release_dates=check_release_dates)
        except ScheduleError:
            return False
        return True

    # -- export ----------------------------------------------------------
    def to_gantt(self, *, width: int = 78) -> str:
        """Render a small ASCII Gantt chart (one line per processor)."""

        makespan = self.makespan()
        if makespan == 0:
            return "(empty schedule)"
        scale = width / makespan
        rows = []
        labels = {}
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        for i, name in enumerate(sorted(self._entries)):
            labels[name] = letters[i % len(letters)]
        for p in range(self.machine_count):
            row = ["."] * width
            for entry in self._entries.values():
                if p not in entry.processors:
                    continue
                lo = int(entry.start * scale)
                hi = max(lo + 1, int(entry.completion * scale))
                for x in range(lo, min(hi, width)):
                    row[x] = labels[entry.job.name]
            rows.append(f"P{p:03d} |" + "".join(row) + "|")
        legend = ", ".join(f"{labels[n]}={n}" for n in sorted(self._entries))
        return "\n".join(rows) + "\n" + legend

    def to_records(self) -> List[Dict[str, object]]:
        """Export as a list of plain dicts (for CSV / JSON dumps)."""

        records = []
        for entry in sorted(self._entries.values(), key=lambda e: (e.start, e.job.name)):
            records.append(
                {
                    "job": entry.job.name,
                    "start": entry.start,
                    "completion": entry.completion,
                    "nbproc": entry.nbproc,
                    "processors": list(entry.processors),
                    "release_date": entry.job.release_date,
                    "weight": entry.job.weight,
                    "owner": entry.job.owner,
                }
            )
        return records

    def __repr__(self) -> str:
        return (
            f"Schedule(machines={self.machine_count}, jobs={len(self)}, "
            f"makespan={self.makespan():.3f})"
        )


class ScheduleError(RuntimeError):
    """Raised by :meth:`Schedule.validate` on an infeasible schedule."""


def pack_contiguously(
    machine_count: int,
    placements: Iterable[Tuple[Job, float, int]],
) -> Schedule:
    """Helper turning (job, start, nbproc) triples into concrete processor sets.

    Jobs are assigned to concrete processor indices greedily: at each start
    time the lowest-numbered processors that are free for the whole duration
    of the job are used.  The input placements must already be feasible in
    the "profile" sense (at every instant the total requested processor count
    is at most ``machine_count``); otherwise a :class:`ScheduleError` is
    raised.
    """

    schedule = Schedule(machine_count)
    # free_at[p] = time at which processor p becomes free
    busy: List[List[Tuple[float, float]]] = [[] for _ in range(machine_count)]

    def is_free(p: int, start: float, end: float) -> bool:
        for (s, e) in busy[p]:
            if not (end <= s + 1e-12 or start >= e - 1e-12):
                return False
        return True

    for job, start, nbproc in sorted(placements, key=lambda t: (t[1], t[0].name)):
        runtime = job.runtime(nbproc)
        end = start + runtime
        chosen: List[int] = []
        for p in range(machine_count):
            if is_free(p, start, end):
                chosen.append(p)
                if len(chosen) == nbproc:
                    break
        if len(chosen) < nbproc:
            raise ScheduleError(
                f"cannot place job {job.name!r} at t={start}: needs {nbproc} "
                f"processors, only {len(chosen)} free"
            )
        for p in chosen:
            busy[p].append((start, end))
        schedule.add(job, start, chosen, runtime)
    return schedule
