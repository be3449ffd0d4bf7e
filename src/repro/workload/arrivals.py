"""Arrival processes: turning an off-line job set into an on-line one.

The on-line policies of sections 4.2-4.4 need jobs with release dates.  The
generators below assign release dates to an existing list of jobs (returning
*new* job objects -- jobs are treated as immutable descriptions):

* :func:`offline_arrivals` -- everything available at time 0;
* :func:`poisson_arrivals` -- exponential inter-arrival times, the standard
  model for independent users submitting to a cluster;
* :func:`bursty_arrivals` -- arrivals grouped in bursts, modelling campaign
  submissions (a user submitting a whole parameter sweep at once);
* :func:`diurnal_arrivals` -- a non-homogeneous Poisson process whose rate
  follows a day/night cycle, modelling interactive users.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.job import Job

RandomState = Union[int, np.random.Generator, None]


def _rng(random_state: RandomState) -> np.random.Generator:
    if isinstance(random_state, np.random.Generator):
        return random_state
    return np.random.default_rng(random_state)


def _finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _with_release(job: Job, release_date: float) -> Job:
    """Return a copy of ``job`` with the given release date.

    The input job was validated when it was built, and a release date can
    only break one of its invariants (``due_date >= release_date``), so the
    copy re-checks that one instead of re-running ``__post_init__``.  A
    shallow copy of the instance dict also keeps the memoised profile bounds
    (``_best_runtime`` & co.), which do not depend on the release date.
    Negative dates are clamped to 0; a non-finite date is rejected.
    """

    release = float(release_date)
    _finite(f"job {job.name!r}: release date", release)
    release = max(0.0, release)
    job._check_due(release)
    cls = type(job)
    copy = cls.__new__(cls)
    state = copy.__dict__
    state.update(job.__dict__)
    state["release_date"] = release
    return copy


def offline_arrivals(jobs: Sequence[Job]) -> List[Job]:
    """All jobs available at time 0 (the off-line setting of section 4.1)."""

    return [_with_release(job, 0.0) for job in jobs]


def poisson_arrivals(
    jobs: Sequence[Job],
    *,
    rate: Optional[float] = None,
    mean_interarrival: Optional[float] = None,
    random_state: RandomState = None,
    sorted_by_name: bool = True,
) -> List[Job]:
    """Assign Poisson-process release dates to the jobs.

    Exactly one of ``rate`` (arrivals per time unit) or ``mean_interarrival``
    must be given.  Jobs receive their release dates in list order (or name
    order when ``sorted_by_name``), which keeps the mapping deterministic for
    a fixed seed.
    """

    if (rate is None) == (mean_interarrival is None):
        raise ValueError("specify exactly one of rate / mean_interarrival")
    if rate is not None:
        _finite("rate", rate)
        if rate <= 0:
            raise ValueError("rate must be > 0")
        mean_interarrival = 1.0 / rate
    assert mean_interarrival is not None
    _finite("mean_interarrival", mean_interarrival)
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be > 0")
    rng = _rng(random_state)
    ordered = sorted(jobs, key=lambda j: j.name) if sorted_by_name else list(jobs)
    gaps = rng.exponential(mean_interarrival, size=len(ordered))
    releases = np.cumsum(gaps)
    return [_with_release(job, float(t)) for job, t in zip(ordered, releases)]


def bursty_arrivals(
    jobs: Sequence[Job],
    *,
    burst_size: int = 10,
    burst_gap: float = 50.0,
    random_state: RandomState = None,
) -> List[Job]:
    """Group jobs into bursts of ``burst_size`` separated by ``burst_gap``.

    Inside a burst all jobs share the same release date (with a tiny jitter to
    keep orderings unambiguous).
    """

    if burst_size < 1:
        raise ValueError("burst_size must be >= 1")
    _finite("burst_gap", burst_gap)
    if burst_gap < 0:
        raise ValueError("burst_gap must be >= 0")
    rng = _rng(random_state)
    ordered = sorted(jobs, key=lambda j: j.name)
    out: List[Job] = []
    for i, job in enumerate(ordered):
        burst_index = i // burst_size
        jitter = float(rng.uniform(0.0, 1e-6))
        out.append(_with_release(job, burst_index * burst_gap + jitter))
    return out


def diurnal_arrivals(
    jobs: Sequence[Job],
    *,
    mean_interarrival: float,
    period: float = 24.0,
    peak_to_trough: float = 4.0,
    phase: float = 0.0,
    random_state: RandomState = None,
) -> List[Job]:
    """Non-homogeneous Poisson arrivals following a day/night cycle.

    The instantaneous rate oscillates sinusoidally around the average rate
    ``1 / mean_interarrival`` with period ``period`` (hours, matching the
    community workloads); ``peak_to_trough`` sets the ratio between the
    busiest and the quietest instant.  Sampling uses the standard thinning
    construction: candidate arrivals are drawn from a homogeneous process at
    the peak rate and accepted with probability ``rate(t) / peak_rate``,
    which is exact and stays deterministic for a fixed seed.
    """

    for name, value in (
        ("mean_interarrival", mean_interarrival),
        ("period", period),
        ("peak_to_trough", peak_to_trough),
        ("phase", phase),
    ):
        _finite(name, value)
    if mean_interarrival <= 0:
        raise ValueError("mean_interarrival must be > 0")
    if period <= 0:
        raise ValueError("period must be > 0")
    if peak_to_trough < 1:
        raise ValueError("peak_to_trough must be >= 1 (peak rate >= trough rate)")
    rng = _rng(random_state)
    mean_rate = 1.0 / mean_interarrival
    # rate(t) = mean_rate * (1 + a sin(...)) with (1+a)/(1-a) = peak_to_trough.
    amplitude = (peak_to_trough - 1.0) / (peak_to_trough + 1.0)
    peak_rate = mean_rate * (1.0 + amplitude)
    ordered = sorted(jobs, key=lambda j: j.name)
    out: List[Job] = []
    t = 0.0
    for job in ordered:
        while True:
            t += float(rng.exponential(1.0 / peak_rate))
            rate = mean_rate * (
                1.0 + amplitude * math.sin(2.0 * math.pi * (t / period) + phase)
            )
            if rng.random() * peak_rate <= rate:
                break
        out.append(_with_release(job, t))
    return out


def scaled_load_arrivals(
    jobs: Sequence[Job],
    machine_count: int,
    *,
    target_utilization: float = 0.7,
    random_state: RandomState = None,
) -> List[Job]:
    """Poisson arrivals whose rate targets a given average platform utilization.

    The arrival rate is chosen so that (average work per job) x (rate) equals
    ``target_utilization x machine_count``: the standard way of generating
    on-line instances with a controlled load factor.
    """

    _finite("target_utilization", target_utilization)
    if not 0 < target_utilization:
        raise ValueError("target_utilization must be > 0")
    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    from repro.core.bounds import min_work  # local import to avoid a cycle at import time

    jobs = list(jobs)
    if not jobs:
        return []
    mean_work = sum(min_work(j) for j in jobs) / len(jobs)
    rate = target_utilization * machine_count / max(mean_work, 1e-12)
    return poisson_arrivals(jobs, rate=rate, random_state=random_state)
