"""Per-community workload profiles of the CIMENT grid (section 5.2).

"Every community has its own behavior [...] the numerical physicists have
long (up to several weeks), sequential jobs to perform, while the computer
scientists' jobs are shorter, focusing mainly on debug."

Each profile describes, for one research community, the statistical shape of
its *local* job stream (runtimes, parallelism, submission rate) and how much
multi-parametric *grid* work it injects into the central best-effort server.
Durations are expressed in hours.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.core.job import Job, ParametricSweep
from repro.core.speedup import AmdahlSpeedup, runtime_profile_array
from repro.workload.arrivals import poisson_arrivals
from repro.workload.parametric import generate_parametric_bags
from repro.workload.table import JobTable

RandomState = Union[int, np.random.Generator, None]


def _rng(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


@dataclass(frozen=True)
class CommunityProfile:
    """Statistical description of one community's workload."""

    name: str
    #: Log-uniform range of sequential runtimes, in hours.
    runtime_range: Tuple[float, float]
    #: Fraction of jobs that are strictly sequential.
    sequential_fraction: float
    #: Maximum useful parallelism of the parallel jobs.
    max_parallelism: int
    #: Range of Amdahl serial fractions for the parallel jobs.
    serial_fraction_range: Tuple[float, float]
    #: Mean inter-arrival time between two local submissions, in hours.
    mean_interarrival: float
    #: Number of multi-parametric bags submitted to the grid per simulated
    #: campaign (0 = the community never uses the grid).
    parametric_bags: int
    #: Number of runs per bag (log-uniform range).
    runs_range: Tuple[int, int] = (200, 2000)
    #: Per-run duration range, in hours.
    run_time_range: Tuple[float, float] = (0.05, 0.3)


#: The four communities of the CIMENT project mentioned in the paper
#: ("Numerical Physicists, Astrophysicists, Medical Researchers, Computer
#: Scientists, ...").  Parameters follow the qualitative description of
#: section 5.2.
COMMUNITY_PROFILES: Dict[str, CommunityProfile] = {
    "numerical-physics": CommunityProfile(
        name="numerical-physics",
        runtime_range=(24.0, 336.0),     # 1 day .. 2 weeks
        sequential_fraction=0.9,          # "long sequential jobs"
        max_parallelism=8,
        serial_fraction_range=(0.2, 0.5),
        mean_interarrival=6.0,
        parametric_bags=2,
    ),
    "computer-science": CommunityProfile(
        name="computer-science",
        runtime_range=(0.05, 4.0),       # minutes .. a few hours ("debug")
        sequential_fraction=0.3,
        max_parallelism=64,
        serial_fraction_range=(0.02, 0.15),
        mean_interarrival=0.5,
        parametric_bags=1,
    ),
    "astrophysics": CommunityProfile(
        name="astrophysics",
        runtime_range=(2.0, 72.0),
        sequential_fraction=0.4,
        max_parallelism=32,
        serial_fraction_range=(0.05, 0.3),
        mean_interarrival=3.0,
        parametric_bags=3,
    ),
    "medical-research": CommunityProfile(
        name="medical-research",
        runtime_range=(0.5, 24.0),
        sequential_fraction=0.6,
        max_parallelism=16,
        serial_fraction_range=(0.1, 0.4),
        mean_interarrival=2.0,
        parametric_bags=2,
        runs_range=(1000, 10000),        # image-processing style sweeps
        run_time_range=(0.02, 0.1),
    ),
}


def community_workload(
    profile: Union[str, CommunityProfile],
    n_jobs: int,
    machine_count: int,
    *,
    random_state: RandomState = None,
    online: bool = True,
) -> List[Job]:
    """Local (cluster) jobs of one community.

    Returns moldable jobs (sequential jobs are moldable jobs with a single
    admissible allocation) carrying the community name in ``job.owner``.
    """

    if isinstance(profile, str):
        try:
            profile = COMMUNITY_PROFILES[profile]
        except KeyError:
            raise KeyError(
                f"unknown community {profile!r}; known: {sorted(COMMUNITY_PROFILES)}"
            ) from None
    if n_jobs < 0:
        raise ValueError("n_jobs must be >= 0")
    rng = _rng(random_state)
    lo, hi = profile.runtime_range
    # The draw loop stays scalar: per-job draw order is part of the
    # reproducibility contract.  The profiles are collected into one
    # JobTable, validated in a few vectorized passes and materialized with
    # their bound caches seeded.
    names: List[str] = []
    profiles: List[np.ndarray] = []
    for i in range(n_jobs):
        seq = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if rng.random() < profile.sequential_fraction:
            runtimes = np.array([seq])
        else:
            max_procs = min(profile.max_parallelism, machine_count)
            max_procs = int(rng.integers(2, max_procs + 1)) if max_procs >= 2 else 1
            s_lo, s_hi = profile.serial_fraction_range
            model = AmdahlSpeedup(float(rng.uniform(s_lo, s_hi)))
            runtimes = runtime_profile_array(seq, max_procs, model)
        names.append(f"{profile.name}-{i:05d}")
        profiles.append(runtimes)
    table = JobTable.from_profiles(names, profiles, owners=[profile.name] * n_jobs)
    jobs: List[Job] = table.to_jobs()
    if online:
        jobs = poisson_arrivals(
            jobs, mean_interarrival=profile.mean_interarrival, random_state=rng
        )
    return jobs


def grid_workload(
    profile: Union[str, CommunityProfile],
    *,
    random_state: RandomState = None,
) -> List[ParametricSweep]:
    """Multi-parametric bags the community submits to the central grid server."""

    if isinstance(profile, str):
        profile = COMMUNITY_PROFILES[profile]
    rng = _rng(random_state)
    return generate_parametric_bags(
        profile.parametric_bags,
        runs_range=profile.runs_range,
        run_time_range=profile.run_time_range,
        owner=profile.name,
        random_state=rng,
        name_prefix=f"{profile.name}-sweep",
    )
