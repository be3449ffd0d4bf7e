"""Multi-parametric job generation (section 5.2).

"A majority of the jobs submitted in this context are multi-parametric jobs.
Such a job consists of a large number (up to several hundreds of thousands)
of runs of the same program, each having different parameters.  Each run
takes a relatively short time to complete, this time being often the same for
every run."

These bags are the *grid* jobs of the centralized organisation: the central
server submits their individual runs as best-effort tasks on the local
clusters.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple, Union

import numpy as np

from repro.core.job import ParametricSweep

RandomState = Union[int, np.random.Generator, None]


def _rng(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def generate_parametric_bags(
    n_bags: int,
    *,
    runs_range: Tuple[int, int] = (100, 2000),
    run_time_range: Tuple[float, float] = (0.5, 5.0),
    owner: str = "grid",
    release_spread: float = 0.0,
    random_state: RandomState = None,
    name_prefix: str = "sweep",
) -> List[ParametricSweep]:
    """Random multi-parametric bags.

    Parameters
    ----------
    runs_range:
        Inclusive range of the number of runs per bag (log-uniform draw).
    run_time_range:
        Range of the per-run duration (uniform draw); every run of a bag has
        the same duration, as described in the paper.
    release_spread:
        Bags receive release dates uniformly in ``[0, release_spread]``
        (0 = all available immediately).
    """

    if n_bags < 0:
        raise ValueError("n_bags must be >= 0")
    lo_r, hi_r = runs_range
    if lo_r < 1 or hi_r < lo_r:
        raise ValueError("invalid runs_range")
    lo_t, hi_t = run_time_range
    if lo_t <= 0 or hi_t < lo_t:
        raise ValueError("invalid run_time_range")
    if release_spread < 0:
        raise ValueError("release_spread must be >= 0")
    rng = _rng(random_state)
    bags: List[ParametricSweep] = []
    for i in range(n_bags):
        n_runs = int(round(math.exp(rng.uniform(math.log(lo_r), math.log(hi_r)))))
        n_runs = max(lo_r, min(hi_r, n_runs))
        run_time = float(rng.uniform(lo_t, hi_t))
        release = float(rng.uniform(0.0, release_spread)) if release_spread > 0 else 0.0
        bags.append(
            ParametricSweep(
                name=f"{name_prefix}-{i:04d}",
                n_runs=n_runs,
                run_time=run_time,
                owner=owner,
                release_date=release,
            )
        )
    return bags


def total_work(bags: Sequence[ParametricSweep]) -> float:
    """Total processor-time of the bags on a reference processor."""

    return sum(bag.total_work for bag in bags)
