"""Struct-of-arrays job tables: the vectorized workload fast path.

The sweep engine builds hundreds of moldable jobs per experiment cell; with
plain :class:`~repro.core.job.MoldableJob` construction every job pays an
O(max_procs) python loop for profile validation plus three more O(max_procs)
scans the first time the bounds (:func:`~repro.core.bounds.min_work` et al.)
are queried.  A :class:`JobTable` stores the whole workload column-wise --
one CSR matrix of runtime profiles plus flat numpy columns for release
dates, weights and minimal allocations, plus a list of owners -- validates
it in a handful of vectorized passes, computes every derived bound column at
once, and only *materializes* :class:`~repro.core.job.MoldableJob` objects
at the runtime boundary (with their memo caches pre-seeded from the
columns).

Bit-for-bit contract
--------------------
Everything in this module is digest-neutral by construction:

* validation uses the exact comparisons of ``MoldableJob.__post_init__``
  (elementwise, therefore IEEE-identical to the scalar loop) and re-runs the
  scalar constructor on the offending job to raise the identical message;
* the derived columns use only elementwise ``*`` and exact ``min`` folds
  (``np.minimum.reduceat``), which produce the same floats as the python
  ``min()`` over the same values;
* :meth:`JobTable.to_jobs` yields objects that compare equal -- field by
  field -- to jobs built through the regular constructor.

``tests/workload/test_job_table.py`` locks the equivalence down.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.job import MoldableJob

__all__ = ["JobTable"]


def _as_profile(profile) -> "np.ndarray":
    arr = np.asarray(profile, dtype=float)
    if arr.ndim != 1:
        raise ValueError("runtime profiles must be one-dimensional")
    return arr


class JobTable:
    """A columnar batch of moldable jobs (CSR profiles + flat columns).

    Parameters mirror the per-job fields of :class:`MoldableJob`; profiles
    are ragged, so they are stored CSR-style in ``data`` (concatenated
    float64 runtimes) indexed by ``ptr`` (``ptr[i]:ptr[i+1]`` is job *i*'s
    profile).  Use :meth:`from_profiles` / :meth:`from_jobs` instead of the
    raw constructor.
    """

    __slots__ = (
        "names",
        "release",
        "weight",
        "min_procs",
        "owners",
        "data",
        "ptr",
        "_best_runtime",
        "_min_work",
        "_non_increasing",
    )

    def __init__(
        self,
        names: List[str],
        release: "np.ndarray",
        weight: "np.ndarray",
        min_procs: "np.ndarray",
        data: "np.ndarray",
        ptr: "np.ndarray",
        owners: Optional[List[Optional[str]]] = None,
    ) -> None:
        self.names = names
        self.release = release
        self.weight = weight
        self.min_procs = min_procs
        self.owners = owners if owners is not None else [None] * len(names)
        self.data = data
        self.ptr = ptr
        self._best_runtime: Optional[np.ndarray] = None
        self._min_work: Optional[np.ndarray] = None
        self._non_increasing: Optional[np.ndarray] = None

    # -- construction -----------------------------------------------------
    @classmethod
    def from_profiles(
        cls,
        names: Sequence[str],
        profiles: Sequence,
        *,
        weights: Optional[Sequence[float]] = None,
        release_dates: Optional[Sequence[float]] = None,
        owners: Optional[Sequence[Optional[str]]] = None,
        validate: bool = True,
    ) -> "JobTable":
        """Build a table from per-job runtime profiles (``min_procs`` = 1)."""

        if weights is not None and len(weights) != len(names):
            raise ValueError("weights and names must have the same length")
        if release_dates is not None and len(release_dates) != len(names):
            raise ValueError("release_dates and names must have the same length")
        if owners is not None and len(owners) != len(names):
            raise ValueError("owners and names must have the same length")
        n = len(names)
        arrays = [_as_profile(p) for p in profiles]
        if len(arrays) != n:
            raise ValueError("profiles and names must have the same length")
        lengths = np.fromiter((a.shape[0] for a in arrays), dtype=np.int64, count=n)
        if n and lengths.min() < 1:
            i = int(np.argmin(lengths))
            raise ValueError(f"job {names[i]!r}: empty runtime profile")
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])
        data = np.concatenate(arrays) if n else np.empty(0, dtype=float)
        release = (
            np.asarray(release_dates, dtype=float)
            if release_dates is not None
            else np.zeros(n, dtype=float)
        )
        weight = (
            np.asarray(weights, dtype=float)
            if weights is not None
            else np.ones(n, dtype=float)
        )
        table = cls(
            list(names),
            release,
            weight,
            np.ones(n, dtype=np.int64),
            data,
            ptr,
            list(owners) if owners is not None else None,
        )
        if validate:
            table._validate()
        return table

    @classmethod
    def from_jobs(cls, jobs: Sequence[MoldableJob]) -> "JobTable":
        """Build a table from existing (already validated) moldable jobs."""

        n = len(jobs)
        names: List[str] = []
        owners: List[Optional[str]] = []
        arrays: List[np.ndarray] = []
        release = np.empty(n, dtype=float)
        weight = np.empty(n, dtype=float)
        min_procs = np.empty(n, dtype=np.int64)
        for i, job in enumerate(jobs):
            if not isinstance(job, MoldableJob):
                raise TypeError(f"JobTable only holds moldable jobs, got {type(job)!r}")
            names.append(job.name)
            owners.append(job.owner)
            arrays.append(np.array(job.runtimes, dtype=float))
            release[i] = job.release_date
            weight[i] = job.weight
            min_procs[i] = job.min_procs
        lengths = np.fromiter((a.shape[0] for a in arrays), dtype=np.int64, count=n)
        ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(lengths, out=ptr[1:])
        data = np.concatenate(arrays) if n else np.empty(0, dtype=float)
        return cls(names, release, weight, min_procs, data, ptr, owners)

    # -- validation --------------------------------------------------------
    def _scalar_raise(self, row: int) -> None:
        """Re-run the scalar constructor on ``row`` for the exact message."""

        i = int(row)
        MoldableJob(
            name=self.names[i],
            release_date=float(self.release[i]),
            weight=float(self.weight[i]),
            runtimes=self.data[self.ptr[i] : self.ptr[i + 1]].tolist(),
            min_procs=int(self.min_procs[i]),
        )
        raise AssertionError(
            f"vectorized validation flagged job {self.names[i]!r} but the "
            "scalar constructor accepted it"
        )  # pragma: no cover - guards a checker mismatch

    def _validate(self) -> None:
        """Vectorized equivalent of the per-job ``__post_init__`` checks."""

        data, ptr = self.data, self.ptr
        if (self.release < 0).any():
            self._scalar_raise(int(np.argmax(self.release < 0)))
        if (self.weight < 0).any():
            self._scalar_raise(int(np.argmax(self.weight < 0)))
        if data.shape[0] == 0:
            return
        if (data <= 0).any():
            pos = int(np.argmax(data <= 0))
            self._scalar_raise(int(np.searchsorted(ptr, pos, side="right")) - 1)
        if data.shape[0] > 1:
            prev, nxt = data[:-1], data[1:]
            # Position j compares data[j] and data[j+1]; it is internal to a
            # row unless j+1 is a row start.
            internal = np.ones(data.shape[0] - 1, dtype=bool)
            starts = ptr[1:-1]
            internal[starts[starts < data.shape[0]] - 1] = False
            kpos = (
                np.arange(1, data.shape[0], dtype=float)
                - np.repeat(ptr[:-1], np.diff(ptr)).astype(float)[1:]
            )
            runtime_bad = internal & (nxt > prev * (1 + 1e-9))
            work_bad = internal & ((kpos + 1.0) * nxt < kpos * prev * (1 - 1e-9))
            bad = runtime_bad | work_bad
            if bad.any():
                pos = int(np.argmax(bad))
                self._scalar_raise(int(np.searchsorted(ptr, pos + 1, side="right")) - 1)

    # -- derived columns ---------------------------------------------------
    def __len__(self) -> int:
        return len(self.names)

    def _reduce_min(self, values: "np.ndarray") -> "np.ndarray":
        """Per-row exact ``min`` over the admissible suffix of each profile."""

        starts = self.ptr[:-1] + self.min_procs - 1
        if (self.min_procs == 1).all():
            # Rows are contiguous, so reduceat segments are exactly the rows.
            return np.minimum.reduceat(values, starts)
        out = np.empty(len(self.names), dtype=float)
        for i in range(len(self.names)):
            out[i] = values[starts[i] : self.ptr[i + 1]].min()
        return out

    def best_runtime_column(self) -> "np.ndarray":
        """``min(runtimes[min_procs-1:])`` for every job, in one pass."""

        if self._best_runtime is None:
            self._best_runtime = self._reduce_min(self.data)
        return self._best_runtime

    def min_work_column(self) -> "np.ndarray":
        """``min(k * p(k) for k >= min_procs)`` for every job, in one pass."""

        if self._min_work is None:
            kpos = (
                np.arange(self.data.shape[0], dtype=float)
                - np.repeat(self.ptr[:-1], np.diff(self.ptr)).astype(float)
                + 1.0
            )
            self._min_work = self._reduce_min(self.data * kpos)
        return self._min_work

    def non_increasing_column(self) -> "np.ndarray":
        """Exact (tolerance-free) per-row monotony flags."""

        if self._non_increasing is None:
            flags = np.ones(len(self.names), dtype=bool)
            data, ptr = self.data, self.ptr
            if data.shape[0] > 1:
                bad = data[1:] > data[:-1]
                starts = ptr[1:-1]
                bad[starts[starts < data.shape[0]] - 1] = False
                for pos in np.flatnonzero(bad):
                    flags[int(np.searchsorted(ptr, pos + 1, side="right")) - 1] = False
            self._non_increasing = flags
        return self._non_increasing

    # -- materialization ---------------------------------------------------
    def to_jobs(self) -> List[MoldableJob]:
        """Materialize :class:`MoldableJob` objects with primed memo caches.

        The objects are field-for-field identical to ones built through the
        regular constructor (the table was validated with the same checks),
        so this skips ``__post_init__`` and writes the instance dict
        directly; ``_best_runtime`` / ``_min_work`` / ``_non_increasing``
        are seeded from the vectorized columns instead of being recomputed
        lazily one O(max_procs) scan at a time.
        """

        best = self.best_runtime_column().tolist()
        mwork = self.min_work_column().tolist()
        noninc = self.non_increasing_column().tolist()
        release = self.release.tolist()
        weight = self.weight.tolist()
        min_procs = self.min_procs.tolist()
        owners = self.owners
        flat = self.data.tolist()
        bounds = self.ptr.tolist()
        jobs: List[MoldableJob] = []
        new = MoldableJob.__new__
        for i, name in enumerate(self.names):
            job = new(MoldableJob)
            d = job.__dict__
            d["name"] = name
            d["release_date"] = release[i]
            d["weight"] = weight[i]
            d["due_date"] = None
            d["owner"] = owners[i]
            d["runtimes"] = tuple(flat[bounds[i] : bounds[i + 1]])
            d["min_procs"] = min_procs[i]
            d["enforce_monotony"] = True
            d["_best_runtime"] = best[i]
            d["_min_work"] = mwork[i]
            d["_non_increasing"] = noninc[i]
            jobs.append(job)
        return jobs
