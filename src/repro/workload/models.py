"""Random generators of rigid and moldable Parallel Tasks.

All generators are driven by an explicit seed (or
:class:`numpy.random.Generator`) so every experiment of the repository is
reproducible bit-for-bit.  Runtimes follow a log-uniform distribution by
default -- parallel workloads mix short debug jobs and long production runs
spanning several orders of magnitude -- and weights are either uniform or
proportional to the job work (the two conventions used in the weighted
completion time literature).

:func:`figure2_workload` builds the two workload families of Figure 2:

* ``"non_parallel"`` -- sequential jobs only (each job uses exactly one
  processor);
* ``"parallel"`` -- moldable jobs whose profiles follow a random mix of
  Amdahl and power-law speedups, with maximum parallelism up to the cluster
  size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.core.job import Job, MoldableJob, RigidJob
from repro.workload.table import JobTable

RandomState = Union[int, np.random.Generator, None]


def _rng(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


@dataclass
class WorkloadConfig:
    """Parameters shared by the synthetic workload generators."""

    #: Minimum and maximum sequential runtime (log-uniform distribution).
    runtime_range: Tuple[float, float] = (1.0, 100.0)
    #: Weights: "unit" (all 1), "work" (proportional to sequential work) or
    #: "random" (uniform in [1, 10]).
    weight_scheme: str = "unit"
    #: Fraction of jobs that are sequential even in a "parallel" workload.
    sequential_fraction: float = 0.0
    #: Maximum processor count of moldable jobs (None = platform size).
    max_procs: Optional[int] = None
    #: Range of the Amdahl serial fraction of moldable jobs.
    serial_fraction_range: Tuple[float, float] = (0.02, 0.25)
    #: Range of the power-law exponent of moldable jobs.
    power_alpha_range: Tuple[float, float] = (0.7, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.runtime_range
        if lo <= 0 or hi < lo:
            raise ValueError("invalid runtime_range")
        if self.weight_scheme not in ("unit", "work", "random"):
            raise ValueError("weight_scheme must be 'unit', 'work' or 'random'")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            raise ValueError("sequential_fraction must be in [0, 1]")
        for label in ("serial_fraction_range", "power_alpha_range"):
            lo, hi = getattr(self, label)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{label} must satisfy 0 <= lo <= hi <= 1, got ({lo}, {hi})")


def _runtimes(rng: np.random.Generator, n: int, runtime_range: Tuple[float, float]) -> np.ndarray:
    lo, hi = runtime_range
    return np.exp(rng.uniform(math.log(lo), math.log(hi), size=n))


def _weight(rng: np.random.Generator, scheme: str, work: float) -> float:
    if scheme == "unit":
        return 1.0
    if scheme == "work":
        return float(work)
    return float(rng.uniform(1.0, 10.0))


def generate_rigid_jobs(
    n_jobs: int,
    machine_count: int,
    *,
    config: Optional[WorkloadConfig] = None,
    max_procs: Optional[int] = None,
    random_state: RandomState = None,
    name_prefix: str = "rigid",
) -> List[RigidJob]:
    """Random rigid jobs: log-uniform runtimes, log-uniform processor counts."""

    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0")
    config = config or WorkloadConfig()
    rng = _rng(random_state)
    cap = max_procs or config.max_procs or machine_count
    cap = min(cap, machine_count)
    runtimes = _runtimes(rng, n_jobs, config.runtime_range)
    jobs: List[RigidJob] = []
    for i in range(n_jobs):
        # Log-uniform processor requirement in [1, cap]: most jobs are small,
        # a few are large, which matches observed supercomputer workloads.
        nbproc = int(round(math.exp(rng.uniform(0.0, math.log(cap))))) if cap > 1 else 1
        nbproc = max(1, min(cap, nbproc))
        duration = float(runtimes[i])
        jobs.append(
            RigidJob(
                name=f"{name_prefix}-{i:05d}",
                nbproc=nbproc,
                duration=duration,
                weight=_weight(rng, config.weight_scheme, duration * nbproc),
            )
        )
    return jobs


#: Profile families drawn by :func:`generate_moldable_jobs`.
_SEQUENTIAL, _AMDAHL, _POWER = 0, 1, 2


def _check_drawn(params: "np.ndarray", mask: "np.ndarray", message: str) -> None:
    """Vectorised ``0 <= param <= 1`` over the drawn speedup parameters."""

    drawn = params[mask]
    if not ((drawn >= 0.0) & (drawn <= 1.0)).all():
        raise ValueError(message)


def _moldable_profiles(
    seqs: "np.ndarray",
    kinds: "np.ndarray",
    params: "np.ndarray",
    lengths: "np.ndarray",
) -> Tuple["np.ndarray", "np.ndarray"]:
    """Every drawn runtime profile as one CSR block ``(data, ptr)``.

    Row *i* equals ``runtime_profile_array(seqs[i], lengths[i], model)`` for
    its Amdahl or power-law model, and ``[seqs[i]]`` for a sequential job.
    Amdahl speedups are computed elementwise with the model's expression;
    power laws use python's ``k ** alpha`` (libm ``pow``), not ``np.power``,
    whose SIMD paths may round the last ulp differently.  Dividing by a
    speedup of exactly 1.0 leaves a sequential runtime unchanged.
    """

    n = lengths.shape[0]
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    starts = np.repeat(ptr[:-1], lengths)
    karr = (np.arange(1, int(ptr[-1]) + 1, dtype=np.int64) - starts).astype(float)
    kind_el = np.repeat(kinds, lengths)
    speed = np.ones(karr.shape[0])
    amdahl = kind_el == _AMDAHL
    if amdahl.any():
        f = np.repeat(params, lengths)[amdahl]
        speed[amdahl] = 1.0 / (f + (1.0 - f) / karr[amdahl])
    power_rows = np.flatnonzero(kinds == _POWER)
    if power_rows.shape[0]:
        ks = [float(k) for k in range(1, int(lengths.max()) + 1)]
        powers: List[float] = []
        for alpha, length in zip(params[power_rows].tolist(), lengths[power_rows].tolist()):
            powers.extend(map(alpha.__rpow__, ks[:length]))
        speed[kind_el == _POWER] = powers
    data = np.repeat(seqs, lengths) / np.maximum(speed, 1e-12)
    # Monotony repair, as the per-profile running minimum, only on the rows
    # with an increase (the fold leaves a non-increasing row unchanged).
    if data.shape[0] > 1:
        rises = data[1:] > data[:-1]
        inner = ptr[1:-1]
        rises[inner[inner < data.shape[0]] - 1] = False
        if rises.any():
            rows = np.unique(np.searchsorted(ptr, np.flatnonzero(rises) + 1, side="right") - 1)
            for i in rows.tolist():
                row = data[ptr[i] : ptr[i + 1]]
                np.minimum.accumulate(row, out=row)
    return data, ptr


def generate_moldable_jobs(
    n_jobs: int,
    machine_count: int,
    *,
    config: Optional[WorkloadConfig] = None,
    random_state: RandomState = None,
    name_prefix: str = "moldable",
) -> List[MoldableJob]:
    """Random moldable jobs with Amdahl or power-law speedup profiles."""

    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0")
    config = config or WorkloadConfig()
    rng = _rng(random_state)
    cap = min(config.max_procs or machine_count, machine_count)
    runtimes = _runtimes(rng, n_jobs, config.runtime_range)
    # The RNG draw loop stays scalar -- the per-job draw *order* is part of
    # the reproducibility contract -- and only records what each job drew.
    # The profiles are then built together as one CSR block and validated
    # by one JobTable, which materializes MoldableJob objects with their
    # bound caches pre-seeded (bit-identical to one job at a time).
    kinds: List[int] = []
    params: List[float] = []
    lengths: List[int] = []
    weights: List[float] = []
    random, uniform, integers = rng.random, rng.uniform, rng.integers
    for seq in runtimes.tolist():
        if random() < config.sequential_fraction:
            kinds.append(_SEQUENTIAL)
            params.append(0.0)
            lengths.append(1)
        else:
            if random() < 0.5:
                lo, hi = config.serial_fraction_range
                kinds.append(_AMDAHL)
            else:
                lo, hi = config.power_alpha_range
                kinds.append(_POWER)
            params.append(float(uniform(lo, hi)))
            lengths.append(int(integers(2, cap + 1)) if cap >= 2 else 1)
        weights.append(_weight(rng, config.weight_scheme, seq))
    if not n_jobs:
        return []
    kind_col = np.array(kinds, dtype=np.int8)
    param_col = np.array(params)
    _check_drawn(param_col, kind_col == _AMDAHL, "serial_fraction must be in [0, 1]")
    _check_drawn(param_col, kind_col == _POWER, "alpha must be in [0, 1]")
    data, ptr = _moldable_profiles(runtimes, kind_col, param_col, np.array(lengths, dtype=np.int64))
    names = [f"{name_prefix}-{i:05d}" for i in range(n_jobs)]
    return JobTable.from_csr(names, data, ptr, weights=weights).to_jobs()


def generate_mixed_jobs(
    n_jobs: int,
    machine_count: int,
    *,
    rigid_fraction: float = 0.3,
    config: Optional[WorkloadConfig] = None,
    random_state: RandomState = None,
    name_prefix: str = "job",
) -> List[Job]:
    """A mix of rigid and moldable jobs (section 5.1 scenario)."""

    if not 0.0 <= rigid_fraction <= 1.0:
        raise ValueError("rigid_fraction must be in [0, 1]")
    rng = _rng(random_state)
    n_rigid = int(round(n_jobs * rigid_fraction))
    n_moldable = n_jobs - n_rigid
    rigid = generate_rigid_jobs(
        n_rigid, machine_count, config=config, random_state=rng,
        name_prefix=f"{name_prefix}-r",
    )
    moldable = generate_moldable_jobs(
        n_moldable, machine_count, config=config, random_state=rng,
        name_prefix=f"{name_prefix}-m",
    )
    jobs: List[Job] = [*rigid, *moldable]
    rng.shuffle(jobs)  # type: ignore[arg-type]
    return jobs


def figure2_workload(
    n_jobs: int,
    machine_count: int = 100,
    *,
    family: str = "parallel",
    random_state: RandomState = None,
    runtime_range: Tuple[float, float] = (1.0, 50.0),
    weight_scheme: str = "work",
) -> List[MoldableJob]:
    """The two workload families of Figure 2.

    Parameters
    ----------
    family:
        ``"parallel"`` -- moldable jobs (random Amdahl / power-law profiles);
        ``"non_parallel"`` -- strictly sequential jobs.
    weight_scheme:
        Weights of the ``sum w_i C_i`` criterion; the default makes the weight
        proportional to the job's sequential work, the usual convention when
        users "pay" proportionally to the resources they request.
    """

    if family not in ("parallel", "non_parallel"):
        raise ValueError("family must be 'parallel' or 'non_parallel'")
    config = WorkloadConfig(
        runtime_range=runtime_range,
        weight_scheme=weight_scheme,
        sequential_fraction=1.0 if family == "non_parallel" else 0.0,
        max_procs=machine_count,
    )
    return generate_moldable_jobs(
        n_jobs,
        machine_count,
        config=config,
        random_state=random_state,
        name_prefix=family,
    )
