"""Unit tests of the shared policy helpers (allocators, list-scheduling kernel)."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import MoldableJob, RigidJob
from repro.core.policies.base import (
    MoldableAllocator,
    SchedulerError,
    list_schedule_rigid,
    sort_jobs,
)
from repro.core.speedup import AmdahlSpeedup, LinearSpeedup, make_runtime_table
from repro.workload.models import generate_rigid_jobs


class TestMoldableAllocator:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError):
            MoldableAllocator("magic")

    def test_rigid_jobs_keep_their_requirement(self):
        allocator = MoldableAllocator("sequential")
        job = RigidJob(name="r", nbproc=4, duration=1.0)
        assert allocator.allocate(job, 8) == 4
        with pytest.raises(SchedulerError):
            allocator.allocate(job, 2)

    def test_sequential_strategy(self):
        allocator = MoldableAllocator("sequential")
        job = MoldableJob(name="m", runtimes=make_runtime_table(8.0, 8, LinearSpeedup()))
        assert allocator.allocate(job, 8) == 1

    def test_min_runtime_strategy(self):
        allocator = MoldableAllocator("min_runtime")
        job = MoldableJob(name="m", runtimes=make_runtime_table(8.0, 8, LinearSpeedup()))
        assert allocator.allocate(job, 8) == 8
        # Platform smaller than the profile: capped at machine_count.
        assert allocator.allocate(job, 4) == 4

    def test_best_efficiency_strategy_on_linear_profile(self):
        allocator = MoldableAllocator("best_efficiency")
        job = MoldableJob(name="m", runtimes=make_runtime_table(8.0, 8, LinearSpeedup()))
        # Linear speedup keeps the work constant: the largest allocation is free.
        assert allocator.allocate(job, 8) == 8

    def test_bounded_efficiency_strategy(self):
        allocator = MoldableAllocator("bounded_efficiency", efficiency_threshold=0.5)
        job = MoldableJob(name="m", runtimes=make_runtime_table(16.0, 16, AmdahlSpeedup(0.2)))
        chosen = allocator.allocate(job, 16)
        base_work = job.min_work()
        assert base_work / (chosen * job.runtime(chosen)) >= 0.5 - 1e-9

    def test_min_procs_respected(self):
        allocator = MoldableAllocator("sequential")
        job = MoldableJob(name="m", runtimes=[9.0, 5.0, 4.0], min_procs=2)
        assert allocator.allocate(job, 8) == 2
        with pytest.raises(SchedulerError):
            allocator.allocate(job, 1)

    def test_freeze(self):
        allocator = MoldableAllocator("sequential")
        jobs = [MoldableJob(name="m", runtimes=[3.0, 2.0]),
                RigidJob(name="r", nbproc=2, duration=1.0)]
        frozen = allocator.freeze(jobs, 4)
        assert frozen == [(jobs[0], 1), (jobs[1], 2)]


class TestListScheduleRigid:
    def test_simple_packing(self):
        jobs = [RigidJob(name="a", nbproc=2, duration=4.0),
                RigidJob(name="b", nbproc=2, duration=4.0),
                RigidJob(name="c", nbproc=4, duration=2.0)]
        schedule = list_schedule_rigid([(j, j.nbproc) for j in jobs], 4)
        schedule.validate()
        # a and b run in parallel, then c: makespan 6
        assert schedule.makespan() == pytest.approx(6.0)

    def test_start_time_offset(self):
        job = RigidJob(name="a", nbproc=1, duration=2.0)
        schedule = list_schedule_rigid([(job, 1)], 2, start_time=10.0)
        assert schedule["a"].start == 10.0

    def test_infeasible_allocation_rejected(self):
        job = RigidJob(name="a", nbproc=8, duration=1.0)
        with pytest.raises(SchedulerError):
            list_schedule_rigid([(job, 8)], 4)

    def test_graham_bound_holds(self):
        """List scheduling is a (2 - 1/m)-approximation for sequential jobs."""

        jobs = generate_rigid_jobs(40, 1, random_state=5)  # all sequential
        machines = 8
        schedule = list_schedule_rigid([(j, 1) for j in jobs], machines)
        area = sum(j.duration for j in jobs) / machines
        longest = max(j.duration for j in jobs)
        lower = max(area, longest)
        assert schedule.makespan() <= (2 - 1 / machines) * lower + 1e-9


class TestSortJobs:
    def test_orders(self):
        jobs = [
            RigidJob(name="short", nbproc=4, duration=1.0, weight=1.0, release_date=3.0),
            RigidJob(name="long", nbproc=1, duration=10.0, weight=100.0, release_date=0.0),
        ]
        assert [j.name for j in sort_jobs(jobs, "fcfs")] == ["long", "short"]
        assert [j.name for j in sort_jobs(jobs, "lpt")] == ["long", "short"]
        assert [j.name for j in sort_jobs(jobs, "spt")] == ["short", "long"]
        assert [j.name for j in sort_jobs(jobs, "area")] == ["long", "short"]
        # WSPT: long has work/weight 10/100 = 0.1, short 4/1 = 4
        assert [j.name for j in sort_jobs(jobs, "wspt")] == ["long", "short"]

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            sort_jobs([], "alphabetical")


@settings(max_examples=30, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=20),
    machines=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_list_schedule_is_always_valid(n_jobs, machines, seed):
    """Property: the list-scheduling kernel never produces an invalid schedule."""

    jobs = generate_rigid_jobs(n_jobs, machines, random_state=seed)
    schedule = list_schedule_rigid([(j, j.nbproc) for j in jobs], machines)
    schedule.validate()
    assert len(schedule) == n_jobs
