"""Speedup and penalty models for moldable Parallel Tasks.

In the PT model (section 4 of the paper) communications are not handled
explicitly; they are folded into a *global penalty factor* that "reflects the
overhead for data distributions, synchronization, preemption or any extra
factors coming from the management of the parallel execution".  In practice
this penalty is expressed through the shape of the function
``p_j(k)`` -- the execution time of job ``j`` on ``k`` processors.

This module provides the classical parallel-profile families used to generate
synthetic moldable jobs:

* :class:`LinearSpeedup` -- perfect (embarrassingly parallel) speedup,
* :class:`AmdahlSpeedup` -- a sequential fraction bounds the speedup,
* :class:`PowerLawSpeedup` -- ``speedup(k) = k**alpha`` with ``alpha <= 1``,
* :class:`CommunicationPenaltySpeedup` -- perfect parallelism plus an
  additive per-processor overhead (the "global penalty factor"),
* :class:`RooflineSpeedup` -- linear up to a maximum useful parallelism,
  flat afterwards (a simple model of Downey-style profiles).

All models are deterministic, picklable, and callable: ``model(k)`` returns
the speedup on ``k`` processors.  :func:`make_runtime_table` converts a model
into the explicit runtime table expected by
:class:`repro.core.job.MoldableJob`, with optional monotony repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Protocol

import numpy as np


class SpeedupModel(Protocol):
    """Anything callable as ``model(nbproc) -> speedup``."""

    def __call__(self, nbproc: int) -> float:  # pragma: no cover - protocol
        ...


def _check_procs(nbproc: int) -> None:
    if nbproc < 1:
        raise ValueError(f"nbproc must be >= 1, got {nbproc}")


@dataclass(frozen=True)
class LinearSpeedup:
    """Perfect speedup: ``speedup(k) = k``."""

    def __call__(self, nbproc: int) -> float:
        _check_procs(nbproc)
        return float(nbproc)


@dataclass(frozen=True)
class AmdahlSpeedup:
    """Amdahl's law: a fraction ``serial_fraction`` of the work is sequential.

    ``speedup(k) = 1 / (serial_fraction + (1 - serial_fraction) / k)``.
    """

    serial_fraction: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.serial_fraction <= 1.0:
            raise ValueError("serial_fraction must be in [0, 1]")

    def __call__(self, nbproc: int) -> float:
        _check_procs(nbproc)
        return 1.0 / (self.serial_fraction + (1.0 - self.serial_fraction) / nbproc)


@dataclass(frozen=True)
class PowerLawSpeedup:
    """Power-law speedup ``speedup(k) = k**alpha`` with ``0 <= alpha <= 1``.

    ``alpha = 1`` is perfect speedup, ``alpha = 0`` no speedup at all.  This
    family is frequently used in the moldable-scheduling literature because
    it yields monotonic profiles for every ``alpha`` in ``[0, 1]``.
    """

    alpha: float = 0.8

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")

    def __call__(self, nbproc: int) -> float:
        _check_procs(nbproc)
        return float(nbproc) ** self.alpha


@dataclass(frozen=True)
class CommunicationPenaltySpeedup:
    """Perfect parallelism plus an additive communication overhead.

    The runtime on ``k`` processors of a job of sequential time ``p1`` is
    modelled as ``p1 / k + overhead * (k - 1)`` which corresponds to the
    speedup ``p1 / (p1 / k + overhead * (k - 1))``.  The model is expressed
    relative to the sequential time, so the overhead is given as a fraction
    ``overhead_fraction`` of the sequential time per extra processor.

    Beyond the optimal processor count the runtime starts increasing; to keep
    profiles monotonic (as required by the MRT analysis) the speedup is
    clamped at its maximum -- adding processors past the optimum neither
    helps nor hurts.
    """

    overhead_fraction: float = 0.01
    clamp: bool = True

    def __post_init__(self) -> None:
        if self.overhead_fraction < 0:
            raise ValueError("overhead_fraction must be >= 0")

    def raw_speedup(self, nbproc: int) -> float:
        _check_procs(nbproc)
        denom = 1.0 / nbproc + self.overhead_fraction * (nbproc - 1)
        return 1.0 / denom

    def __call__(self, nbproc: int) -> float:
        _check_procs(nbproc)
        if not self.clamp:
            return self.raw_speedup(nbproc)
        best = 0.0
        for k in range(1, nbproc + 1):
            best = max(best, self.raw_speedup(k))
        return best


@dataclass(frozen=True)
class RooflineSpeedup:
    """Linear speedup up to ``max_parallelism`` processors, flat afterwards.

    This is a simplification of the Downey model commonly used to describe
    the average parallelism of supercomputer jobs: the job cannot use more
    than ``max_parallelism`` processors effectively.
    """

    max_parallelism: int = 8

    def __post_init__(self) -> None:
        if self.max_parallelism < 1:
            raise ValueError("max_parallelism must be >= 1")

    def __call__(self, nbproc: int) -> float:
        _check_procs(nbproc)
        return float(min(nbproc, self.max_parallelism))


def _speedup_column(model: SpeedupModel, karr: "np.ndarray") -> "Optional[np.ndarray]":
    """Vectorised ``[model(1), ..., model(P)]`` for the built-in families.

    Returns ``None`` for models without a closed form (the caller falls back
    to the per-``k`` loop).  Every branch uses only elementwise ``+ - * /``,
    comparisons, and running max -- operations that are IEEE-identical to
    the scalar python evaluation -- so the resulting tables are bit-for-bit
    the same as the loop and every digest gate is preserved.  ``np.power``
    is deliberately avoided: its SIMD paths may round the last ulp
    differently from libm's ``pow`` used by python's ``**``.
    """

    if type(model) is LinearSpeedup:
        return karr.copy()
    if type(model) is AmdahlSpeedup:
        f = model.serial_fraction
        return 1.0 / (f + (1.0 - f) / karr)
    if type(model) is RooflineSpeedup:
        return np.minimum(karr, float(model.max_parallelism))
    if type(model) is CommunicationPenaltySpeedup:
        raw = 1.0 / (1.0 / karr + model.overhead_fraction * (karr - 1.0))
        # The scalar model clamps via a running max over 1..k (turning every
        # call into an O(k) loop, O(P^2) per table); maximum.accumulate is
        # the same fold in one pass.
        return np.maximum.accumulate(raw) if model.clamp else raw
    if type(model) is PowerLawSpeedup:
        alpha = model.alpha
        # Scalar ** on purpose (libm pow), vectorising only the dispatch.
        return np.array([float(k) ** alpha for k in range(1, karr.shape[0] + 1)])
    return None


def runtime_profile_array(
    sequential_time: float,
    max_procs: int,
    model: SpeedupModel,
    *,
    repair_monotony: bool = True,
) -> "np.ndarray":
    """Vectorised :func:`make_runtime_table` returning a float64 array.

    Bit-identical to the list version; this is the fast path used by the
    workload generators, which build one table per job.
    """

    if sequential_time <= 0:
        raise ValueError("sequential_time must be > 0")
    if max_procs < 1:
        raise ValueError("max_procs must be >= 1")
    karr = np.arange(1.0, max_procs + 1.0)
    speedups = _speedup_column(model, karr)
    if speedups is None:
        speedups = np.array([model(k) for k in range(1, max_procs + 1)], dtype=float)
    table = sequential_time / np.maximum(speedups, 1e-12)
    if repair_monotony:
        # Same fold as the sequential ``table[k] = min(table[k], table[k-1])``.
        np.minimum.accumulate(table, out=table)
    return table


def make_runtime_table(
    sequential_time: float,
    max_procs: int,
    model: SpeedupModel,
    *,
    repair_monotony: bool = True,
) -> List[float]:
    """Build the explicit runtime table ``[p(1), ..., p(max_procs)]``.

    When ``repair_monotony`` is true the table is post-processed so that
    runtimes never increase with the processor count (``p(k+1) <= p(k)``);
    profiles produced by well-behaved models already satisfy this, but user
    supplied callables may not.
    """

    if sequential_time <= 0:
        raise ValueError("sequential_time must be > 0")
    if max_procs < 1:
        raise ValueError("max_procs must be >= 1")
    karr = np.arange(1.0, max_procs + 1.0)
    if _speedup_column(model, karr) is not None:
        return runtime_profile_array(
            sequential_time, max_procs, model, repair_monotony=repair_monotony
        ).tolist()
    # Unknown model: evaluate it in pure python so exotic return types
    # (e.g. Fraction) keep their original arithmetic.
    table = [sequential_time / max(model(k), 1e-12) for k in range(1, max_procs + 1)]
    if repair_monotony:
        for k in range(1, len(table)):
            table[k] = min(table[k], table[k - 1])
    return table


def efficiency(model: SpeedupModel, nbproc: int) -> float:
    """Parallel efficiency ``speedup(k) / k`` of a model on ``nbproc`` processors."""

    if nbproc < 1:
        raise ValueError("nbproc must be >= 1")
    return model(nbproc) / nbproc
