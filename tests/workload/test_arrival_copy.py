"""The arrival processes copy jobs instead of re-constructing them.

``_with_release`` used to be ``dataclasses.replace``, which re-runs
``__post_init__`` on an already validated job and drops its memoised bounds.
It is now a shallow copy that only re-checks the invariant a release date can
break (``due_date >= release_date``).  These tests pin the copy to the old
construction, field by field, for every job family and arrival process, and
cover the non-finite parameter guards that fail at the boundary.
"""

import dataclasses
import math

import pytest

from repro.core.job import (
    DivisibleJob,
    MalleableJob,
    MoldableJob,
    ParametricSweep,
    RigidJob,
)
from repro.workload import JobTable
from repro.workload.arrivals import (
    _with_release,
    bursty_arrivals,
    diurnal_arrivals,
    offline_arrivals,
    poisson_arrivals,
    scaled_load_arrivals,
)

PROFILE = [12.0, 6.5, 4.6, 3.7, 3.2]


def _families():
    """One list of jobs per family, with due dates far enough out to pass."""

    table_jobs = JobTable.from_profiles(
        ["tab-0", "tab-1", "tab-2"],
        [PROFILE, [9.0], PROFILE[:3]],
        weights=[1.0, 2.0, 0.5],
        owners=["physics", None, "cs"],
    ).to_jobs()
    return {
        "rigid": [
            RigidJob(name=f"r{i}", nbproc=1 + i, duration=2.0 + i, weight=1.0 + i)
            for i in range(4)
        ],
        "moldable": [
            MoldableJob(
                name=f"m{i}",
                runtimes=PROFILE[: 2 + i],
                weight=1.5,
                due_date=1e9,
                owner="astro",
            )
            for i in range(3)
        ]
        + [MoldableJob(name="m-min", runtimes=PROFILE, min_procs=3)],
        "moldable-table": table_jobs,
        "malleable": [
            MalleableJob(name=f"w{i}", total_work=5.0 + i, efficiency=lambda k: 1.0 / k)
            for i in range(3)
        ],
        "divisible": [
            DivisibleJob(name=f"d{i}", load=10.0 * (i + 1), bytes_per_unit=0.5)
            for i in range(3)
        ],
        "sweep": [
            ParametricSweep(name=f"s{i}", n_runs=50 + i, run_time=0.2, due_date=1e9)
            for i in range(3)
        ],
    }


ARRIVALS = {
    "offline": lambda jobs: offline_arrivals(jobs),
    "poisson": lambda jobs: poisson_arrivals(jobs, rate=0.7, random_state=3),
    "poisson-unsorted": lambda jobs: poisson_arrivals(
        jobs, mean_interarrival=2.0, random_state=4, sorted_by_name=False
    ),
    "bursty": lambda jobs: bursty_arrivals(
        jobs, burst_size=2, burst_gap=30.0, random_state=5
    ),
    "diurnal": lambda jobs: diurnal_arrivals(
        jobs, mean_interarrival=1.5, phase=0.3, random_state=6
    ),
    "scaled-load": lambda jobs: scaled_load_arrivals(
        jobs, 8, target_utilization=0.6, random_state=7
    ),
}


def _prime_memos(job):
    """Fill every lazily computed memo entry the job type has."""

    if isinstance(job, MoldableJob):
        job.best_runtime()
        job.min_work()
        job._profile_non_increasing()


def _fields(job):
    return {field.name: getattr(job, field.name) for field in dataclasses.fields(job)}


def _assert_same_as_replace(copy, original):
    reference = dataclasses.replace(original, release_date=copy.release_date)
    assert type(copy) is type(reference)
    assert _fields(copy) == _fields(reference)
    _prime_memos(copy)
    _prime_memos(reference)
    assert copy.__dict__ == reference.__dict__


@pytest.mark.parametrize("family", sorted(_families()))
@pytest.mark.parametrize("arrival", sorted(ARRIVALS))
def test_copy_matches_replace_and_leaves_input_untouched(family, arrival):
    jobs = _families()[family]
    # Field values, not the memo entries: scaled_load_arrivals legitimately
    # memoises min_work() on its input jobs while computing the rate.
    before = [_fields(job) for job in jobs]
    released = ARRIVALS[arrival](jobs)
    assert len(released) == len(jobs)
    by_name = {job.name: job for job in jobs}
    for copy in released:
        original = by_name[copy.name]
        assert copy is not original
        assert copy.release_date >= 0.0 and math.isfinite(copy.release_date)
        _assert_same_as_replace(copy, original)
    assert [_fields(job) for job in jobs] == before


def test_copy_keeps_seeded_memos():
    (job,) = JobTable.from_profiles(["t"], [PROFILE]).to_jobs()
    copy = _with_release(job, 4.0)
    for key in ("_best_runtime", "_min_work", "_non_increasing"):
        assert copy.__dict__[key] == job.__dict__[key]


@pytest.mark.parametrize("release", [-3.5, -0.0, 0.0, 2.25])
def test_negative_release_is_clamped_like_before(release):
    job = MoldableJob(name="m", runtimes=PROFILE)
    copy = _with_release(job, release)
    reference = dataclasses.replace(job, release_date=float(max(0.0, release)))
    assert copy.release_date == reference.release_date
    assert copy.__dict__ == reference.__dict__


@pytest.mark.parametrize(
    "job",
    [
        RigidJob(name="r", nbproc=2, duration=1.0, due_date=3.0),
        MoldableJob(name="m", runtimes=PROFILE, due_date=3.0),
        ParametricSweep(name="s", n_runs=4, run_time=1.0, due_date=3.0),
    ],
    ids=lambda job: type(job).__name__,
)
def test_due_date_before_release_raises_the_same_message(job):
    with pytest.raises(ValueError) as expected:
        dataclasses.replace(job, release_date=5.0)
    with pytest.raises(ValueError) as got:
        _with_release(job, 5.0)
    assert str(got.value) == str(expected.value)
    # A release on the due date itself is still admissible.
    assert _with_release(job, 3.0).release_date == 3.0


@pytest.mark.parametrize("release", [math.nan, math.inf, -math.inf])
def test_non_finite_release_rejected(release):
    job = RigidJob(name="r", nbproc=1, duration=1.0)
    with pytest.raises(ValueError, match="release date must be finite"):
        _with_release(job, release)


BAD = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", BAD)
@pytest.mark.parametrize(
    "call",
    [
        lambda jobs, v: poisson_arrivals(jobs, rate=v, random_state=1),
        lambda jobs, v: poisson_arrivals(jobs, mean_interarrival=v, random_state=1),
        lambda jobs, v: bursty_arrivals(jobs, burst_gap=v, random_state=1),
        lambda jobs, v: diurnal_arrivals(jobs, mean_interarrival=v, random_state=1),
        lambda jobs, v: diurnal_arrivals(
            jobs, mean_interarrival=1.0, period=v, random_state=1
        ),
        lambda jobs, v: diurnal_arrivals(
            jobs, mean_interarrival=1.0, peak_to_trough=v, random_state=1
        ),
        lambda jobs, v: diurnal_arrivals(
            jobs, mean_interarrival=1.0, phase=v, random_state=1
        ),
        lambda jobs, v: scaled_load_arrivals(
            jobs, 8, target_utilization=v, random_state=1
        ),
    ],
    ids=[
        "poisson-rate",
        "poisson-mean",
        "bursty-gap",
        "diurnal-mean",
        "diurnal-period",
        "diurnal-peak",
        "diurnal-phase",
        "scaled-utilization",
    ],
)
def test_non_finite_parameters_rejected(call, value):
    jobs = [RigidJob(name=f"r{i}", nbproc=1, duration=1.0) for i in range(3)]
    with pytest.raises(ValueError, match="must be finite"):
        call(jobs, value)

