"""``list_schedule_rigid`` against the per-job argsort kernel it replaced.

The production kernel keeps the free list as runs of processors sharing a
free time.  The oracle below is the former formulation: one stable argsort
of the whole per-processor free-time array per job.  Both must place every
job at the same start, on the same processors *in the same order*, with the
same completion -- on instances built to be full of ties (integer
durations, integer release dates, a shared offset ``start_time``).
"""

import random

import numpy as np
import pytest

from repro.core.allocation import Schedule
from repro.core.job import MoldableJob, RigidJob
from repro.core.policies.base import SchedulerError, list_schedule_rigid


def reference_list_schedule(allocations, machine_count, *, start_time=0.0):
    """The argsort list-scheduling kernel, kept as an oracle."""

    if machine_count < 1:
        raise ValueError("machine_count must be >= 1")
    free_at = np.full(machine_count, float(start_time))
    schedule = Schedule(machine_count)
    for job, nbproc in allocations:
        if nbproc < 1 or nbproc > machine_count:
            raise SchedulerError(
                f"job {job.name!r}: allocation {nbproc} infeasible on "
                f"{machine_count} processors"
            )
        runtime = job.runtime(nbproc)
        order = np.argsort(free_at, kind="stable")
        chosen_idx = order[:nbproc]
        start = max(float(free_at[order[nbproc - 1]]), start_time)
        free_at[chosen_idx] = start + runtime
        schedule.add(job, start, chosen_idx.tolist(), runtime)
    return schedule


def _placements(schedule):
    return [
        (e.job.name, e.start, e.processors, e.completion, e.allocation.runtime)
        for e in schedule
    ]


def _instance(seed):
    """Random rigid allocations with many equal free times."""

    rnd = random.Random(seed)
    machine_count = rnd.choice([1, 2, 3, 7, 16, 100, 257, 1024])
    n_jobs = rnd.randint(1, 60 if machine_count < 1024 else 25)
    width = rnd.choice(["narrow", "wide", "any"])
    allocations = []
    for i in range(n_jobs):
        if width == "narrow":
            nbproc = rnd.randint(1, max(1, machine_count // 8))
        elif width == "wide":
            nbproc = rnd.randint(max(1, machine_count // 3), machine_count)
        else:
            nbproc = rnd.randint(1, machine_count)
        duration = float(rnd.randint(1, 4))  # few distinct values: ties
        release = float(rnd.randint(0, 6))
        job = RigidJob(name=f"j{i:03d}", nbproc=nbproc, duration=duration, release_date=release)
        allocations.append((job, nbproc))
    start_time = rnd.choice([0.0, 0.0, 2.0, 3.5])
    return allocations, machine_count, start_time


@pytest.mark.parametrize("block", range(10))
def test_matches_argsort_kernel_on_tied_instances(block):
    for seed in range(block * 20, block * 20 + 20):
        allocations, m, start_time = _instance(seed)
        got = list_schedule_rigid(allocations, m, start_time=start_time)
        want = reference_list_schedule(allocations, m, start_time=start_time)
        assert _placements(got) == _placements(want), (seed, m, start_time)
        got.validate(check_release_dates=False)


def test_moldable_profiles_and_fractional_times():
    rnd = random.Random(99)
    for m in (4, 64, 1024):
        allocations = []
        for i in range(40):
            k = rnd.randint(1, m)
            runtimes = [10.0 / j for j in range(1, k + 1)]
            job = MoldableJob(name=f"m{i:02d}", runtimes=runtimes)
            allocations.append((job, rnd.randint(1, k)))
        got = list_schedule_rigid(allocations, m, start_time=0.25)
        want = reference_list_schedule(allocations, m, start_time=0.25)
        assert _placements(got) == _placements(want)


def test_nan_completion_times_sort_last_like_the_argsort():
    # A NaN runtime passes the moldable-profile checks (a rigid job now
    # refuses one); argsort puts NaN free times after every number, ties by
    # index, and so must the runs.
    durations = [2.0, float("nan"), 1.0, float("nan"), 3.0, 1.0, 2.0, 5.0]
    widths = [2, 1, 3, 2, 4, 5, 1, 6]
    allocations = [
        (MoldableJob(name=f"n{i}", runtimes=[d] * k), k)
        for i, (d, k) in enumerate(zip(durations, widths))
    ]
    got = list_schedule_rigid(allocations, 6)
    want = reference_list_schedule(allocations, 6)
    assert repr(_placements(got)) == repr(_placements(want))


def test_full_width_jobs_serialise():
    jobs = [RigidJob(name=f"w{i}", nbproc=8, duration=1.0) for i in range(3)]
    got = list_schedule_rigid([(j, 8) for j in jobs], 8, start_time=1.0)
    assert [e.start for e in got] == [1.0, 2.0, 3.0]
    assert all(e.processors == tuple(range(8)) for e in got)


def test_processor_order_follows_free_time_then_index():
    # p0, p1 busy until 3; p2, p3 until 1: a 3-wide job takes p2, p3, then p0.
    a = RigidJob(name="a", nbproc=2, duration=3.0)
    b = RigidJob(name="b", nbproc=2, duration=1.0)
    c = RigidJob(name="c", nbproc=3, duration=1.0)
    allocations = [(a, 2), (b, 2), (c, 3)]
    got = list_schedule_rigid(allocations, 4)
    assert got["c"].processors == (2, 3, 0)
    assert got["c"].start == 3.0
    assert _placements(got) == _placements(reference_list_schedule(allocations, 4))


@pytest.mark.parametrize("nbproc", [0, -1, 5])
def test_infeasible_allocation_raises_like_the_oracle(nbproc):
    ok = RigidJob(name="ok", nbproc=1, duration=1.0)
    bad = RigidJob(name="bad", nbproc=1, duration=1.0)
    allocations = [(ok, 1), (bad, nbproc)]
    with pytest.raises(SchedulerError, match="infeasible on 4 processors") as got:
        list_schedule_rigid(allocations, 4)
    with pytest.raises(SchedulerError) as want:
        reference_list_schedule(allocations, 4)
    assert str(got.value) == str(want.value)


def test_machine_count_checked():
    with pytest.raises(ValueError):
        list_schedule_rigid([], 0)
