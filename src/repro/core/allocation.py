"""Schedules: allocations, start times, validation and Gantt export.

A :class:`Schedule` is the common output format of every Parallel-Task policy
in :mod:`repro.core.policies` and the common input of every criterion in
:mod:`repro.core.criteria`.  It stores one row per job in flat columns
(:class:`ScheduleColumns`) and builds :class:`ScheduledJob` objects only when
it is read entry by entry.

The class knows how to *validate* itself (no processor runs two jobs at the
same time, release dates and reservations are respected, allocations match
the job model), which the test-suite and the simulators use extensively.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul, sub
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.core.job import Job, MoldableJob, RigidJob


def _check_allocation(processors: Sequence[int], runtime: float) -> None:
    """Raise ``ValueError`` unless ``processors`` can run a job for ``runtime``."""

    if not processors:
        raise ValueError("empty allocation")
    if len(processors) > 1 and len(set(processors)) != len(processors):
        raise ValueError("duplicate processors in allocation")
    if runtime <= 0:
        raise ValueError("runtime must be > 0")


def _check_start(name: str, start: float) -> None:
    if start < 0:
        raise ValueError(f"job {name!r}: negative start time")


@dataclass(frozen=True)
class Allocation:
    """A set of processors assigned to a job, with the resulting runtime."""

    processors: Tuple[int, ...]
    runtime: float

    def __post_init__(self) -> None:
        _check_allocation(self.processors, self.runtime)

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
        _check_start(self.job.name, self.start)

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
        """True when they overlap in time (as :meth:`Schedule.validate` sees it) on a processor."""

        if other.start >= self.completion - 1e-9:
            return False
        if self.start >= other.completion - 1e-9:
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


class ScheduleColumns(NamedTuple):
    """A :class:`Schedule`'s own storage, one row per job in insertion order.

    Row ``i`` runs ``jobs[i]`` from ``starts[i]`` to ``ends[i] = starts[i] +
    runtimes[i]`` on ``processors[offsets[i]:offsets[i + 1]]``.  The fields
    are the schedule's live lists, not copies: readers must not mutate them
    (hence ``Sequence``); only :class:`Schedule` methods append rows.
    """

    jobs: Sequence[Job]
    starts: Sequence[float]
    runtimes: Sequence[float]
    ends: Sequence[float]
    processors: Sequence[int]
    offsets: Sequence[int]

    def nbprocs(self) -> List[int]:
        offsets = self.offsets
        return list(map(sub, offsets[1:], offsets))


class Schedule:
    """A complete schedule on ``machine_count`` identical processors.

    The container is mutable while a policy builds it (via :meth:`add` and
    :meth:`extend`) and is usually validated once at the end with
    :meth:`validate`.  Rows live in flat columns (:attr:`columns`).
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
        self._rows: Dict[str, int] = {}
        self._cols = ScheduleColumns([], [], [], [], [], [0])

    # -- construction ----------------------------------------------------
    def add(
        self,
        job: Job,
        start: float,
        processors: Sequence[int],
        runtime: Optional[float] = None,
    ) -> None:
        """Place ``job`` at ``start`` on ``processors``.

        ``runtime`` defaults to ``job.runtime(len(processors))`` which is the
        correct value for rigid and moldable jobs; simulators that model
        heterogeneous speeds pass the effective runtime explicitly.  Bad
        rows raise what :class:`Allocation` and :class:`ScheduledJob` raise.
        """

        rows = self._rows
        if job.name in rows:
            raise ValueError(f"job {job.name!r} already scheduled")
        processors = list(map(int, processors))
        nbproc = len(processors)
        if not (processors and 0 <= min(processors) and max(processors) < self.machine_count):
            self._check_processors(processors)
        if runtime is None:
            runtime = job.runtime(nbproc)
        _check_allocation(processors, runtime)
        _check_start(job.name, start)
        jobs, starts, runtimes, ends, flat, offsets = self._cols
        rows[job.name] = len(jobs)
        jobs.append(job)
        starts.append(start)
        runtimes.append(runtime)
        ends.append(start + runtime)
        flat += processors
        offsets.append(len(flat))

    def extend(self, other: "Schedule", *, processor_offset: int = 0) -> None:
        """Append the rows of ``other``, processors moved up by ``processor_offset``.

        Raises like :meth:`add` on a scheduled job or an out-of-range
        processor, before appending anything.
        """

        src = other._cols
        procs = src.processors
        if processor_offset:
            procs = [p + processor_offset for p in procs]
        rows = self._rows
        if not rows.keys().isdisjoint(other._rows) or (
            procs and not (0 <= min(procs) and max(procs) < self.machine_count)
        ):
            offsets = src.offsets
            for i, job in enumerate(src.jobs):
                if job.name in rows:
                    raise ValueError(f"job {job.name!r} already scheduled")
                self._check_processors(procs[offsets[i]:offsets[i + 1]])
        jobs, starts, runtimes, ends, flat, offsets = self._cols
        rows.update(zip(other._rows, range(len(jobs), len(jobs) + len(src.jobs))))
        for column, block in zip((jobs, starts, runtimes, ends), src):
            column += block
        offsets += [len(flat) + o for o in src.offsets[1:]]
        flat += procs

    def _check_processors(self, processors: Sequence[int]) -> None:
        """Raise for the first index outside ``[0, machine_count)``."""

        for p in processors:
            if not 0 <= p < self.machine_count:
                raise ValueError(
                    f"processor index {p} outside platform of size {self.machine_count}"
                )

    def shift(self, delta: float) -> "Schedule":
        """Return a copy of the schedule with every start time shifted by ``delta``."""

        starts = [start + delta for start in self._cols.starts]
        for job, start in zip(self._cols.jobs, starts):
            _check_start(job.name, start)
        out = Schedule(self.machine_count, reservations=self.reservations)
        out.extend(self)
        out._cols.starts[:] = starts
        out._cols.ends[:] = [s + r for s, r in zip(starts, self._cols.runtimes)]
        return out

    def merge(self, other: "Schedule") -> "Schedule":
        """Union of two schedules on the same platform (jobs must be disjoint)."""

        if other.machine_count != self.machine_count:
            raise ValueError("cannot merge schedules on different platform sizes")
        out = Schedule(self.machine_count, reservations=self.reservations + other.reservations)
        out.extend(self)
        out.extend(other)
        return out

    # -- accessors -------------------------------------------------------
    @property
    def columns(self) -> ScheduleColumns:
        """The rows as flat columns, in insertion order (read-only)."""

        return self._cols

    def _entry(self, row: int) -> ScheduledJob:
        jobs, starts, runtimes, _, flat, offsets = self._cols
        processors = tuple(flat[offsets[row]:offsets[row + 1]])
        return ScheduledJob(jobs[row], starts[row], Allocation(processors, runtimes[row]))

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, job_name: str) -> bool:
        return job_name in self._rows

    def __getitem__(self, job_name: str) -> ScheduledJob:
        return self._entry(self._rows[job_name])

    def __iter__(self) -> Iterator[ScheduledJob]:
        return map(self._entry, range(len(self._rows)))

    @property
    def jobs(self) -> List[Job]:
        return list(self._cols.jobs)

    @property
    def entries(self) -> List[ScheduledJob]:
        return list(self)

    def completion_times(self) -> Dict[str, float]:
        return dict(zip(self._rows, self._cols.ends))

    def makespan(self) -> float:
        """Latest completion time, 0 for an empty schedule."""

        ends = self._cols.ends
        return max(ends) if ends else 0.0

    def total_work(self) -> float:
        cols = self._cols
        return sum(map(mul, cols.nbprocs(), cols.runtimes))

    def utilization(self, horizon: Optional[float] = None) -> float:
        """Fraction of the processor-time area actually used up to ``horizon``."""

        horizon = self.makespan() if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        cols = self._cols
        used = 0.0
        for nbproc, start, end in zip(cols.nbprocs(), cols.starts, cols.ends):
            used += nbproc * max(0.0, min(end, horizon) - min(start, horizon))
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

        cols = self._cols
        jobs, starts, _, ends, processors, offsets = cols
        nbprocs = cols.nbprocs()
        order = sorted(range(len(jobs)), key=starts.__getitem__)
        reservations = self.reservations
        for i in order:
            job, start, nbproc = jobs[i], starts[i], nbprocs[i]
            if check_release_dates and start < job.release_date - 1e-9:
                raise ScheduleError(
                    f"job {job.name!r} starts at {start} before its "
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
                for p in processors[offsets[i]:offsets[i + 1]]:
                    if reservation.blocks(p, start, ends[i]):
                        raise ScheduleError(
                            f"job {job.name!r} overlaps reservation "
                            f"{reservation.label!r} on processor {p}"
                        )
        if not jobs:
            return
        # Overlap detection: one vectorized per-processor sweep over all
        # (processor, start, completion) slots at once.  Sorting slots by
        # (processor, start) and comparing adjacent same-processor pairs is
        # the classical interval argument: with intervals sorted by start,
        # any overlap implies an *adjacent* overlap.  The stable lexsort
        # keeps equal slots in row order, as a walk by start time does.  The
        # slow per-pair loop below only runs when a violation was detected,
        # to name the first overlapping pair.
        procs = np.array(processors, dtype=np.int64)
        slot_starts = np.repeat(np.array(starts), nbprocs)
        slot_ends = np.repeat(np.array(ends), nbprocs)
        slots = np.lexsort((slot_starts, procs))
        p_sorted = procs[slots]
        s_sorted = slot_starts[slots]
        e_sorted = slot_ends[slots]
        same = p_sorted[1:] == p_sorted[:-1]
        if bool((same & (s_sorted[1:] < e_sorted[:-1] - 1e-9)).any()):
            per_proc: Dict[int, List[int]] = {}
            for i in order:
                for p in processors[offsets[i]:offsets[i + 1]]:
                    per_proc.setdefault(p, []).append(i)
            for p, rows in per_proc.items():
                rows.sort(key=starts.__getitem__)
                for prev, nxt in zip(rows, rows[1:]):
                    if starts[nxt] < ends[prev] - 1e-9:
                        raise ScheduleError(
                            f"jobs {jobs[prev].name!r} and {jobs[nxt].name!r} overlap "
                            f"on processor {p} "
                            f"([{starts[prev]}, {ends[prev]}) vs "
                            f"[{starts[nxt]}, {ends[nxt]}))"
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
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        names = sorted(self._rows)
        labels = {name: letters[i % len(letters)] for i, name in enumerate(names)}
        chart = [["."] * width for _ in range(self.machine_count)]
        cols = self._cols
        for i, (job, start, end) in enumerate(zip(cols.jobs, cols.starts, cols.ends)):
            lo = int(start * scale)
            hi = max(lo + 1, int(end * scale))
            for p in cols.processors[cols.offsets[i]:cols.offsets[i + 1]]:
                for x in range(lo, min(hi, width)):
                    chart[p][x] = labels[job.name]
        rows = [f"P{p:03d} |" + "".join(row) + "|" for p, row in enumerate(chart)]
        legend = ", ".join(f"{labels[n]}={n}" for n in names)
        return "\n".join(rows) + "\n" + legend

    def to_records(self) -> List[Dict[str, object]]:
        """Export as a list of plain dicts (for CSV / JSON dumps)."""

        records = []
        for entry in sorted(self, key=lambda e: (e.start, e.job.name)):
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
