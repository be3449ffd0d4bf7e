"""Job models of the Parallel Tasks (PT) and Divisible Load (DLT) worlds.

Section 2 of the paper distinguishes two alternative computational models:

* **Parallel Tasks (PT)** -- a task that gathers elementary operations and
  contains enough internal parallelism to be executed by more than one
  processor.  Communications inside the task are accounted for implicitly by
  a *penalty* on the parallel execution time.  Three flavours are defined:

  - *rigid* jobs: the number of processors is fixed a priori,
  - *moldable* jobs: the number of processors is decided by the scheduler
    before the execution starts and never changes afterwards,
  - *malleable* jobs: the number of processors may change during execution.

* **Divisible Load Tasks (DLT)** -- a large bag of arbitrarily divisible,
  completely independent elementary computations (fine grain).  The
  scheduling problem is the *distribution* of the load to the processors.

This module defines light-weight, immutable-ish dataclasses for each of
these job types.  They carry no scheduling state; scheduling state lives in
:class:`repro.core.allocation.Schedule` and in the simulators.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as np


class JobKind(enum.Enum):
    """Enumeration of the job families handled by the library."""

    RIGID = "rigid"
    MOLDABLE = "moldable"
    MALLEABLE = "malleable"
    DIVISIBLE = "divisible"


@dataclass
class Job:
    """Common base class of every job.

    Parameters
    ----------
    name:
        Unique identifier of the job (any hashable string).
    release_date:
        Time at which the job becomes available (``r_j``).  ``0`` for
        off-line problems.
    weight:
        Priority weight ``w_j`` used by the weighted completion time
        criterion.  Defaults to 1 (unweighted).
    due_date:
        Optional due date used by the tardiness criteria.
    owner:
        Optional identifier of the submitting user / community (used by the
        grid fairness metrics).
    """

    name: str
    release_date: float = 0.0
    weight: float = 1.0
    due_date: Optional[float] = None
    owner: Optional[str] = None

    def __post_init__(self) -> None:
        if self.release_date < 0:
            raise ValueError(f"job {self.name!r}: negative release date")
        if self.weight < 0:
            raise ValueError(f"job {self.name!r}: negative weight")
        self._check_due(self.release_date)

    def _check_due(self, release: float) -> None:
        """Raise unless the due date, if any, is at or after ``release``."""

        if self.due_date is not None and self.due_date < release:
            raise ValueError(
                f"job {self.name!r}: due date {self.due_date} before release "
                f"date {release}"
            )

    # -- interface -------------------------------------------------------
    @property
    def kind(self) -> JobKind:
        raise NotImplementedError

    def runtime(self, nbproc: int) -> float:
        """Execution time ``p_j(nbproc)`` when run on ``nbproc`` processors."""

        raise NotImplementedError

    def work(self, nbproc: int) -> float:
        """Work (processor-time area) ``nbproc * p_j(nbproc)``."""

        return nbproc * self.runtime(nbproc)

    def __hash__(self) -> int:  # jobs are used as dict keys throughout
        return hash(self.name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Job):
            return NotImplemented
        return self.name == other.name


@dataclass(eq=False)
class RigidJob(Job):
    """A parallel task whose processor count is fixed a priori.

    A rigid job is a rectangle in the Gantt chart: ``nbproc`` processors for
    ``duration`` units of time.  The allocation problem for a set of rigid
    jobs corresponds to a strip-packing problem (section 2.2 of the paper).
    """

    nbproc: int = 1
    duration: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.nbproc < 1:
            raise ValueError(f"job {self.name!r}: nbproc must be >= 1")
        if self.duration <= 0:
            raise ValueError(f"job {self.name!r}: duration must be > 0")

    @property
    def kind(self) -> JobKind:
        return JobKind.RIGID

    def runtime(self, nbproc: int) -> float:
        if nbproc != self.nbproc:
            raise ValueError(
                f"rigid job {self.name!r} requires exactly {self.nbproc} "
                f"processors, got {nbproc}"
            )
        return self.duration


@dataclass(eq=False)
class MoldableJob(Job):
    """A parallel task whose processor count is chosen by the scheduler.

    The execution-time profile is given either as an explicit table
    ``runtimes[k-1] = p_j(k)`` for ``k = 1 .. max_procs`` or lazily through a
    :class:`repro.core.speedup.SpeedupModel` (see
    :func:`MoldableJob.from_speedup`).

    The profile is expected to be *monotonic* in the sense of Mounié, Rapine
    and Trystram: the execution time ``p_j(k)`` is non-increasing in ``k``
    and the work ``k * p_j(k)`` is non-decreasing in ``k``.  The constructor
    verifies these assumptions by default because most approximation
    guarantees (the MRT algorithm of section 4.1 in particular) rely on
    them; pass ``enforce_monotony=False`` to accept arbitrary profiles.
    """

    runtimes: Sequence[float] = field(default_factory=lambda: [1.0])
    min_procs: int = 1
    enforce_monotony: bool = True

    def __post_init__(self) -> None:
        super().__post_init__()
        self.runtimes = tuple(float(p) for p in self.runtimes)
        if not self.runtimes:
            raise ValueError(f"job {self.name!r}: empty runtime profile")
        if any(p <= 0 for p in self.runtimes):
            raise ValueError(f"job {self.name!r}: non-positive runtime in profile")
        if not 1 <= self.min_procs <= len(self.runtimes):
            raise ValueError(
                f"job {self.name!r}: min_procs {self.min_procs} outside profile "
                f"1..{len(self.runtimes)}"
            )
        if self.enforce_monotony:
            n = len(self.runtimes)
            if n >= 16:
                # Vectorised validation of long profiles (one numpy pass
                # instead of an O(max_procs) python loop per job; workload
                # generators build hundreds of jobs per sweep cell).  The
                # comparisons are elementwise, hence bit-identical to the
                # scalar loop; the loop below only re-runs on violation to
                # produce the exact same first-error message.
                arr = np.array(self.runtimes)
                karr = np.arange(1.0, n)
                prev, nxt = arr[:-1], arr[1:]
                ok = not (
                    bool((nxt > prev * (1 + 1e-9)).any())
                    or bool(((karr + 1.0) * nxt < karr * prev * (1 - 1e-9)).any())
                )
            else:
                ok = False
            if not ok:
                for k in range(1, n):
                    if self.runtimes[k] > self.runtimes[k - 1] * (1 + 1e-9):
                        raise ValueError(
                            f"job {self.name!r}: runtime increases from {k} to "
                            f"{k + 1} processors ({self.runtimes[k - 1]} -> "
                            f"{self.runtimes[k]}); profile is not monotonic"
                        )
                    work_prev = k * self.runtimes[k - 1]
                    work_next = (k + 1) * self.runtimes[k]
                    if work_next < work_prev * (1 - 1e-9):
                        raise ValueError(
                            f"job {self.name!r}: work decreases from {k} to "
                            f"{k + 1} processors; profile is not monotonic"
                        )

    @property
    def kind(self) -> JobKind:
        return JobKind.MOLDABLE

    @property
    def max_procs(self) -> int:
        """Largest processor count for which the profile is defined."""

        return len(self.runtimes)

    def runtime(self, nbproc: int) -> float:
        if not self.min_procs <= nbproc <= self.max_procs:
            raise ValueError(
                f"moldable job {self.name!r}: allocation {nbproc} outside "
                f"[{self.min_procs}, {self.max_procs}]"
            )
        return self.runtimes[nbproc - 1]

    def sequential_time(self) -> float:
        """Runtime on the smallest admissible allocation."""

        return self.runtimes[self.min_procs - 1]

    # The profile is immutable after __post_init__, so the derived scalars
    # below are computed once and memoised in the instance dict: the bounds
    # and the WSPT orderings of the bi-criteria scheduler query them for
    # every job in every batch, which made the naive O(max_procs) recompute
    # the single hottest spot of a figure-2 sweep cell.

    def best_runtime(self) -> float:
        """Smallest achievable runtime over all admissible allocations."""

        cached = self.__dict__.get("_best_runtime")
        if cached is None:
            cached = min(self.runtimes[self.min_procs - 1 :])
            self.__dict__["_best_runtime"] = cached
        return cached

    def min_work(self) -> float:
        """Smallest achievable work (processor-time area)."""

        cached = self.__dict__.get("_min_work")
        if cached is None:
            cached = min(
                (k + 1) * p
                for k, p in enumerate(self.runtimes)
                if k + 1 >= self.min_procs
            )
            self.__dict__["_min_work"] = cached
        return cached

    def _profile_non_increasing(self) -> bool:
        """Exact (not tolerance-based) monotony of the runtime profile."""

        cached = self.__dict__.get("_non_increasing")
        if cached is None:
            runtimes = self.runtimes
            cached = all(
                runtimes[k] <= runtimes[k - 1] for k in range(1, len(runtimes))
            )
            self.__dict__["_non_increasing"] = cached
        return cached

    def canonical_allocation(self, deadline: float) -> Optional[int]:
        """Smallest admissible allocation meeting ``deadline``, or ``None``.

        This is the quantity written ``gamma(j, lambda)`` in the description
        of the MRT dual-approximation algorithm (section 4.1): the minimal
        number of processors such that the job completes within the guess
        ``lambda``.  Because the profile is non-increasing, the smallest such
        allocation also minimises the work among allocations meeting the
        deadline.
        """

        limit = deadline + 1e-12
        runtimes = self.runtimes
        if self._profile_non_increasing():
            # Exactly non-increasing profile: the admissibility predicate is
            # monotone in k, so the leftmost admissible allocation can be
            # binary-searched (identical result to the linear scan).
            lo = self.min_procs - 1
            hi = len(runtimes)
            if runtimes[hi - 1] > limit:
                return None
            while lo < hi:
                mid = (lo + hi) // 2
                if runtimes[mid] <= limit:
                    hi = mid
                else:
                    lo = mid + 1
            return lo + 1
        # Profiles admitted with enforce_monotony=False may dip arbitrarily;
        # keep the exhaustive scan for those.
        for k in range(self.min_procs, self.max_procs + 1):
            if runtimes[k - 1] <= limit:
                return k
        return None

    @classmethod
    def from_speedup(
        cls,
        name: str,
        sequential_time: float,
        max_procs: int,
        model: "Callable[[int], float]",
        *,
        release_date: float = 0.0,
        weight: float = 1.0,
        due_date: Optional[float] = None,
        owner: Optional[str] = None,
        min_procs: int = 1,
        enforce_monotony: bool = True,
    ) -> "MoldableJob":
        """Build a moldable job from a speedup model.

        ``model(k)`` must return the *speedup* on ``k`` processors (a value
        in ``[1, k]`` for a well-behaved model); the runtime table is then
        ``sequential_time / model(k)``.
        """

        if sequential_time <= 0:
            raise ValueError("sequential_time must be > 0")
        if max_procs < 1:
            raise ValueError("max_procs must be >= 1")
        runtimes = [sequential_time / max(model(k), 1e-12) for k in range(1, max_procs + 1)]
        return cls(
            name=name,
            release_date=release_date,
            weight=weight,
            due_date=due_date,
            owner=owner,
            runtimes=runtimes,
            min_procs=min_procs,
            enforce_monotony=enforce_monotony,
        )

    def as_rigid(self, nbproc: int) -> RigidJob:
        """Freeze the moldable job into a rigid job with a fixed allocation."""

        return RigidJob(
            name=self.name,
            release_date=self.release_date,
            weight=self.weight,
            due_date=self.due_date,
            owner=self.owner,
            nbproc=nbproc,
            duration=self.runtime(nbproc),
        )


@dataclass(eq=False)
class MalleableJob(MoldableJob):
    """A parallel task whose allocation may change during execution.

    The paper does not study malleable scheduling in depth ("We will not
    consider malleability here", end of section 2.2) but the model is part of
    the taxonomy, and the simulators support preemption-style reallocation of
    malleable jobs.  A malleable job is described by its total *work*; when
    executed on ``k`` processors it progresses at rate ``efficiency(k) * k``
    units of work per unit of time.
    """

    total_work: float = 1.0
    efficiency: Callable[[int], float] = field(default=lambda k: 1.0)

    def __post_init__(self) -> None:
        if self.total_work <= 0:
            raise ValueError(f"job {self.name!r}: total_work must be > 0")
        # Derive a runtime profile from the work/efficiency description if
        # the caller did not provide one explicitly (the default profile is
        # the placeholder [1.0]).
        if tuple(self.runtimes) == (1.0,):
            max_procs = max(len(self.runtimes), 1)
            self.runtimes = [self.total_work / max(1e-12, self.rate(1))]
        super().__post_init__()

    @property
    def kind(self) -> JobKind:
        return JobKind.MALLEABLE

    def rate(self, nbproc: int) -> float:
        """Work units processed per unit of time on ``nbproc`` processors."""

        if nbproc < 0:
            raise ValueError("nbproc must be >= 0")
        if nbproc == 0:
            return 0.0
        eff = self.efficiency(nbproc)
        if eff <= 0 or eff > 1 + 1e-9:
            raise ValueError(
                f"job {self.name!r}: efficiency({nbproc}) = {eff} outside (0, 1]"
            )
        return eff * nbproc

    def time_to_finish(self, remaining_work: float, nbproc: int) -> float:
        """Time to process ``remaining_work`` on a constant ``nbproc``."""

        if remaining_work < 0:
            raise ValueError("remaining_work must be >= 0")
        if remaining_work == 0:
            return 0.0
        if nbproc == 0:
            return math.inf
        return remaining_work / self.rate(nbproc)


@dataclass(eq=False)
class DivisibleJob(Job):
    """A Divisible Load Task (section 2.1).

    The job is a (usually large) amount of ``load`` units of computation that
    can be partitioned in every possible way, each part being completely
    independent of the others.  ``bytes_per_unit`` describes the amount of
    input data that must be shipped to a worker per unit of load (the DLT
    distribution algorithms charge communication proportionally to it), and
    ``output_bytes_per_unit`` the size of results to gather (0 means the
    "searching in a database" case discussed in the paper where only one
    processor sends data back).
    """

    load: float = 1.0
    bytes_per_unit: float = 1.0
    output_bytes_per_unit: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.load <= 0:
            raise ValueError(f"job {self.name!r}: load must be > 0")
        if self.bytes_per_unit < 0 or self.output_bytes_per_unit < 0:
            raise ValueError(f"job {self.name!r}: negative data volume per unit")

    @property
    def kind(self) -> JobKind:
        return JobKind.DIVISIBLE

    def runtime(self, nbproc: int) -> float:
        """Ideal runtime on ``nbproc`` unit-speed workers with free communication."""

        if nbproc < 1:
            raise ValueError("nbproc must be >= 1")
        return self.load / nbproc

    def split(self, fractions: Sequence[float]) -> List[float]:
        """Split the load according to ``fractions`` (must sum to 1)."""

        total = sum(fractions)
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise ValueError(f"fractions sum to {total}, expected 1")
        if any(f < -1e-12 for f in fractions):
            raise ValueError("fractions must be non-negative")
        return [max(0.0, f) * self.load for f in fractions]


@dataclass(eq=False)
class ParametricSweep(Job):
    """A multi-parametric job (section 5.2).

    "Such a job consists of a large number (up to several hundreds of
    thousands) of runs of the same program, each having different
    parameters.  Each run takes a relatively short time to complete, this
    time being often the same for every run."

    It is the practical incarnation of a divisible load: a bag of ``n_runs``
    independent sequential runs of duration ``run_time`` each.  The grid
    simulators schedule individual runs as *best-effort* tasks that can be
    killed and resubmitted.
    """

    n_runs: int = 1
    run_time: float = 1.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.n_runs < 1:
            raise ValueError(f"job {self.name!r}: n_runs must be >= 1")
        if self.run_time <= 0:
            raise ValueError(f"job {self.name!r}: run_time must be > 0")

    @property
    def kind(self) -> JobKind:
        return JobKind.DIVISIBLE

    @property
    def total_work(self) -> float:
        return self.n_runs * self.run_time

    def runtime(self, nbproc: int) -> float:
        """Runtime on ``nbproc`` dedicated unit-speed processors."""

        if nbproc < 1:
            raise ValueError("nbproc must be >= 1")
        return math.ceil(self.n_runs / nbproc) * self.run_time

    def as_divisible(self) -> DivisibleJob:
        """Coarse divisible-load view of the bag (ignoring run granularity)."""

        return DivisibleJob(
            name=self.name,
            release_date=self.release_date,
            weight=self.weight,
            due_date=self.due_date,
            owner=self.owner,
            load=self.total_work,
        )


def validate_jobs(jobs: Iterable[Job]) -> List[Job]:
    """Check that a collection of jobs has unique names and return it as a list."""

    jobs = list(jobs)
    seen: Dict[str, Job] = {}
    for job in jobs:
        if job.name in seen:
            raise ValueError(f"duplicate job name {job.name!r}")
        seen[job.name] = job
    return jobs


def total_min_work(jobs: Iterable[Job], machine_count: Optional[int] = None) -> float:
    """Sum of the minimal works of the jobs (used by area lower bounds)."""

    total = 0.0
    for job in jobs:
        if isinstance(job, MoldableJob):
            total += job.min_work()
        elif isinstance(job, RigidJob):
            total += job.work(job.nbproc)
        elif isinstance(job, ParametricSweep):
            total += job.total_work
        elif isinstance(job, DivisibleJob):
            total += job.load
        else:  # pragma: no cover - defensive
            raise TypeError(f"unsupported job type {type(job)!r}")
    return total
