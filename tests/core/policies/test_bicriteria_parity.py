"""``BiCriteriaScheduler`` against the per-batch select/sort loop it replaced.

The scheduler sorts the jobs into WSPT order once and builds every batch in
one walk over the pending jobs; it validates the merged schedule once at the
end.  The oracle below is the former formulation: every batch filters the
released jobs, re-sorts them by WSPT, selects greedily, removes the
selection through a set, and validates the batch on its own.  Both must
produce the same entries (in the same order) and the same batch records.
"""

import pytest

from repro.core.allocation import Schedule, ScheduleError
from repro.core.bounds import min_runtime, min_work
from repro.core.job import MoldableJob, RigidJob, validate_jobs
from repro.core.policies.base import OfflineScheduler, SchedulerError, list_schedule_rigid
from repro.core.policies.bicriteria import BatchRecord, BiCriteriaScheduler
from repro.core.policies.mrt import GreedyMoldableScheduler, MRTScheduler
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import (
    WorkloadConfig,
    figure2_workload,
    generate_mixed_jobs,
    generate_moldable_jobs,
)


def _reference_batch(offline, selected, machine_count, now, deadline):
    if offline is not None:
        return offline.schedule(selected, machine_count, start_time=now)
    allocations = []
    for job in selected:
        if isinstance(job, RigidJob):
            nbproc = job.nbproc
        else:
            nbproc = job.canonical_allocation(deadline)
            if nbproc is None or nbproc > machine_count:
                upper = min(job.max_procs, machine_count)
                nbproc = min(
                    range(job.min_procs, upper + 1), key=lambda k: (job.runtime(k), k)
                )
        allocations.append((job, nbproc))
    allocations.sort(key=lambda t: (-t[0].runtime(t[1]), t[0].name))
    return list_schedule_rigid(allocations, machine_count, start_time=now)


def reference_bicriteria(jobs, machine_count, *, offline=None, initial_deadline=None):
    """The per-batch select/sort loop, kept as an oracle."""

    jobs = validate_jobs(jobs)
    batches = []
    if not jobs:
        return Schedule(machine_count), batches
    remaining = sorted(jobs, key=lambda j: (j.release_date, j.name))
    result = Schedule(machine_count)
    now = min(j.release_date for j in remaining)
    if initial_deadline is not None:
        deadline = initial_deadline
    else:
        deadline = max(min(min_runtime(j) for j in remaining), 1e-9)
    guard = 0
    while remaining:
        guard += 1
        if guard > 4 * len(jobs) + 64:
            raise SchedulerError("bi-criteria scheduler did not converge")
        ready = [j for j in remaining if j.release_date <= now + 1e-12]
        if not ready:
            now = min(j.release_date for j in remaining)
            continue
        order = sorted(ready, key=lambda j: (min_work(j) / max(j.weight, 1e-12), j.name))
        budget = deadline * machine_count
        used = 0.0
        selected = []
        for job in order:
            if min_runtime(job) > deadline + 1e-12:
                continue
            if used + min_work(job) > budget + 1e-9:
                continue
            selected.append(job)
            used += min_work(job)
        if not selected:
            deadline *= 2.0
            continue
        selected_set = set(selected)
        remaining = [j for j in remaining if j not in selected_set]
        batch = _reference_batch(offline, selected, machine_count, now, deadline)
        batch.validate(check_release_dates=False)
        result = result.merge(batch)
        batches.append(
            BatchRecord(
                index=len(batches),
                start=now,
                deadline=deadline,
                jobs=[j.name for j in selected],
                makespan=batch.makespan(),
            )
        )
        now = max(batch.makespan(), now)
        deadline *= 2.0
    return result, batches


def _entries(schedule):
    return [
        (e.job.name, e.start, e.processors, e.completion, e.allocation.runtime)
        for e in schedule
    ]


def _records(batches):
    return [(b.index, b.start, b.deadline, b.jobs, b.makespan) for b in batches]


def _assert_parity(jobs, machine_count, **kwargs):
    scheduler = BiCriteriaScheduler(
        kwargs.get("offline"), initial_deadline=kwargs.get("initial_deadline")
    )
    got = scheduler.schedule(jobs, machine_count)
    want, batches = reference_bicriteria(jobs, machine_count, **kwargs)
    assert _entries(got) == _entries(want)
    assert _records(scheduler.last_batches) == _records(batches)
    assert got.reservations == want.reservations
    return got


@pytest.mark.parametrize("seed", range(8))
def test_figure2_families(seed):
    for family in ("non_parallel", "parallel"):
        jobs = figure2_workload(60 + 20 * seed, 16, family=family, random_state=seed)
        _assert_parity(jobs, 16)


@pytest.mark.parametrize("seed", range(8))
def test_with_release_dates(seed):
    jobs = generate_moldable_jobs(40, 8, random_state=seed)
    jobs = poisson_arrivals(jobs, rate=0.3 + 0.2 * seed, random_state=seed)
    schedule = _assert_parity(jobs, 8)
    schedule.validate()


@pytest.mark.parametrize("initial_deadline", [0.5, 3.0, 40.0, 1e4])
def test_with_explicit_initial_deadline(initial_deadline):
    for seed in range(3):
        jobs = generate_moldable_jobs(
            50, 12, config=WorkloadConfig(weight_scheme="random"), random_state=seed
        )
        _assert_parity(jobs, 12, initial_deadline=initial_deadline)


@pytest.mark.parametrize("seed", range(6))
def test_with_mixed_rigid_and_moldable_jobs(seed):
    jobs = generate_mixed_jobs(45, 10, rigid_fraction=0.4, random_state=seed)
    if seed % 2:
        jobs = poisson_arrivals(jobs, rate=1.0, random_state=seed)
    _assert_parity(jobs, 10)


@pytest.mark.parametrize("seed", range(3))
def test_with_mrt_inner_procedure(seed):
    jobs = generate_moldable_jobs(25, 8, random_state=seed)
    if seed:
        jobs = poisson_arrivals(jobs, rate=0.5, random_state=seed)
    _assert_parity(jobs, 8, offline=MRTScheduler())


def test_with_greedy_inner_procedure():
    jobs = generate_moldable_jobs(30, 8, random_state=4)
    _assert_parity(jobs, 8, offline=GreedyMoldableScheduler())


def test_ties_in_the_wspt_key_follow_the_job_name():
    jobs = [MoldableJob(name=f"t{i}", runtimes=[2.0, 1.0]) for i in (3, 1, 2, 0)]
    got = _assert_parity(jobs, 2)
    assert [e.job.name for e in got] == ["t0", "t1", "t2", "t3"]


class _OverlappingPolicy(OfflineScheduler):
    """Places every job of a batch on processor 0 at the batch start."""

    name = "overlapping"

    def schedule(self, jobs, machine_count, *, start_time=0.0):
        out = Schedule(machine_count)
        for job in jobs:
            out.add(job, start_time, [0], job.runtime(1))
        return out


class _IgnoresStartTimePolicy(OfflineScheduler):
    """Valid within a batch, but every batch restarts at time 0."""

    name = "restart"

    def schedule(self, jobs, machine_count, *, start_time=0.0):
        return list_schedule_rigid([(job, 1) for job in jobs], machine_count)


def test_invalid_batch_still_raises_schedule_error():
    jobs = [MoldableJob(name=f"j{i}", runtimes=[1.0]) for i in range(4)]
    with pytest.raises(ScheduleError, match="overlap on processor 0"):
        BiCriteriaScheduler(_OverlappingPolicy()).schedule(jobs, 4)
    with pytest.raises(ScheduleError):
        reference_bicriteria(jobs, 4, offline=_OverlappingPolicy())


def test_overlap_across_batches_is_caught_too():
    # Each batch alone is valid, so the per-batch checks passed this schedule;
    # the single check of the merged result does not.
    jobs = [MoldableJob(name=f"j{i}", runtimes=[float(2**i)]) for i in range(4)]
    reference_bicriteria(jobs, 1, offline=_IgnoresStartTimePolicy())
    with pytest.raises(ScheduleError, match="overlap"):
        BiCriteriaScheduler(_IgnoresStartTimePolicy()).schedule(jobs, 1)
