"""Unit tests of the lower bounds used for performance ratios."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import bounds
from repro.core.allocation import Schedule
from repro.core.criteria import makespan, sum_completion_times, weighted_completion_time
from repro.core.job import DivisibleJob, MoldableJob, ParametricSweep, RigidJob
from repro.core.policies.list_scheduling import ListScheduler
from repro.workload.models import generate_rigid_jobs


class TestPerJobBounds:
    def test_min_runtime(self):
        assert bounds.min_runtime(RigidJob(name="r", nbproc=2, duration=3.0)) == 3.0
        assert bounds.min_runtime(MoldableJob(name="m", runtimes=[8.0, 5.0])) == 5.0
        assert bounds.min_runtime(ParametricSweep(name="s", n_runs=10, run_time=2.0)) == 2.0
        assert bounds.min_runtime(DivisibleJob(name="d", load=5.0)) == 0.0

    def test_min_work(self):
        assert bounds.min_work(RigidJob(name="r", nbproc=2, duration=3.0)) == 6.0
        assert bounds.min_work(MoldableJob(name="m", runtimes=[8.0, 5.0])) == 8.0
        assert bounds.min_work(ParametricSweep(name="s", n_runs=10, run_time=2.0)) == 20.0
        assert bounds.min_work(DivisibleJob(name="d", load=5.0)) == 5.0


class TestMakespanLowerBound:
    def test_critical_path_dominates(self):
        jobs = [RigidJob(name="big", nbproc=1, duration=100.0),
                RigidJob(name="small", nbproc=1, duration=1.0)]
        assert bounds.makespan_lower_bound(jobs, 100) == 100.0

    def test_area_dominates(self):
        jobs = [RigidJob(name=f"j{i}", nbproc=1, duration=1.0) for i in range(100)]
        assert bounds.makespan_lower_bound(jobs, 10) == pytest.approx(10.0)

    def test_release_date_dominates(self):
        jobs = [RigidJob(name="late", nbproc=1, duration=1.0, release_date=50.0)]
        assert bounds.makespan_lower_bound(jobs, 4) == 51.0

    def test_empty(self):
        assert bounds.makespan_lower_bound([], 4) == 0.0

    def test_invalid_machine_count(self):
        with pytest.raises(ValueError):
            bounds.makespan_lower_bound([], 0)


class TestCompletionBounds:
    def test_single_machine_wspt_is_tight(self):
        # On one machine the squashed-area bound with WSPT order equals the optimum.
        jobs = [
            RigidJob(name="a", nbproc=1, duration=2.0, weight=1.0),
            RigidJob(name="b", nbproc=1, duration=1.0, weight=10.0),
        ]
        bound = bounds.weighted_completion_lower_bound(jobs, 1)
        # optimal order: b then a -> 10*1 + 1*3 = 13
        assert bound == pytest.approx(13.0)

    def test_sum_completion_bound_single_machine(self):
        jobs = [RigidJob(name=c, nbproc=1, duration=d) for c, d in zip("abc", (3.0, 1.0, 2.0))]
        # SPT: 1, 3, 6 -> 10
        assert bounds.sum_completion_lower_bound(jobs, 1) == pytest.approx(10.0)

    def test_bounds_are_below_any_actual_schedule(self):
        jobs = generate_rigid_jobs(30, 8, random_state=3)
        schedule = ListScheduler("wspt").schedule(jobs, 8)
        schedule.validate()
        assert bounds.weighted_completion_lower_bound(jobs, 8) <= weighted_completion_time(schedule) + 1e-9
        assert bounds.sum_completion_lower_bound(jobs, 8) <= sum_completion_times(schedule) + 1e-9
        assert bounds.makespan_lower_bound(jobs, 8) <= makespan(schedule) + 1e-9


class TestOtherBounds:
    def test_stretch_lower_bound(self):
        jobs = [RigidJob(name="a", nbproc=1, duration=4.0),
                RigidJob(name="b", nbproc=1, duration=2.0)]
        assert bounds.stretch_lower_bound(jobs) == pytest.approx(3.0)
        assert bounds.stretch_lower_bound([]) == 0.0

    def test_divisible_makespan_lower_bound(self):
        assert bounds.divisible_makespan_lower_bound(100.0, [1.0, 1.0, 2.0]) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            bounds.divisible_makespan_lower_bound(10.0, [])

    def test_performance_ratio(self):
        assert bounds.performance_ratio(3.0, 2.0) == 1.5
        assert bounds.performance_ratio(0.0, 0.0) == 1.0
        assert math.isinf(bounds.performance_ratio(1.0, 0.0))


@settings(max_examples=40, deadline=None)
@given(
    n_jobs=st.integers(min_value=1, max_value=25),
    machines=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_makespan_bound_never_exceeds_list_schedule(n_jobs, machines, seed):
    """Property: the lower bound is below the makespan of an actual schedule."""

    jobs = generate_rigid_jobs(n_jobs, machines, random_state=seed)
    schedule = ListScheduler("lpt").schedule(jobs, machines)
    assert bounds.makespan_lower_bound(jobs, machines) <= schedule.makespan() + 1e-9


# The single-dispatch bounds against their per-call definitions: each bound
# re-queried ``min_runtime``/``min_work`` per job and summed in job order.


def _reference_bounds(jobs, m):
    mr, mw = bounds.min_runtime, bounds.min_work
    cmax = 0.0
    if jobs:
        cmax = max(
            max(mr(j) for j in jobs),
            sum(mw(j) for j in jobs) / m,
            max(j.release_date + mr(j) for j in jobs),
        )
    elapsed, terms = 0.0, []
    for job in sorted(jobs, key=lambda j: (mw(j) / max(j.weight, 1e-12), j.name)):
        elapsed += mw(job) / m
        terms.append(job.weight * max(elapsed, job.release_date + mr(job)))
    wc = sum(terms)
    elapsed, sc = 0.0, 0.0
    for job in sorted(jobs, key=lambda j: (mw(j), j.name)):
        elapsed += mw(job) / m
        sc += max(elapsed, job.release_date + mr(job))
    stretch = sum(mr(j) for j in jobs) / len(jobs) if jobs else 0.0
    return cmax, wc, sc, stretch


def _mixed_jobs(seed, n):
    import random

    rnd = random.Random(seed)
    jobs = []
    for i in range(n):
        kind = rnd.randrange(4)
        common = dict(name=f"j{i:03d}", release_date=rnd.choice([0.0, rnd.uniform(0, 30)]),
                      weight=rnd.choice([0.0, 1.0, rnd.uniform(0.1, 9)]))
        if kind == 0:
            k = rnd.randint(1, 6)
            jobs.append(MoldableJob(runtimes=[10.0 / j ** 0.7 for j in range(1, k + 1)], **common))
        elif kind == 1:
            jobs.append(RigidJob(nbproc=rnd.randint(1, 4), duration=rnd.uniform(0.5, 9), **common))
        elif kind == 2:
            jobs.append(ParametricSweep(n_runs=rnd.randint(1, 9), run_time=rnd.uniform(1, 3), **common))
        else:
            jobs.append(DivisibleJob(load=rnd.uniform(1, 40), **common))
    return jobs


@pytest.mark.parametrize("seed", range(12))
def test_bounds_match_their_per_call_definitions(seed):
    jobs = _mixed_jobs(seed, seed * 7)
    m = 1 + seed % 5
    want = _reference_bounds(jobs, m)
    assert bounds.criteria_lower_bounds(jobs, m) == want
    assert (
        bounds.makespan_lower_bound(jobs, m),
        bounds.weighted_completion_lower_bound(jobs, m),
        bounds.sum_completion_lower_bound(jobs, m),
        bounds.stretch_lower_bound(jobs),
    ) == want


def test_criteria_lower_bounds_checks_its_inputs():
    with pytest.raises(ValueError):
        bounds.criteria_lower_bounds([], 0)
    with pytest.raises(TypeError):
        bounds.criteria_lower_bounds([object()], 2)


# Known unsound completion bounds: the per-job max of the squashed-area
# position and ``r_j + p_j^min`` is not a lower bound (only each term's sum
# is).  Both instances have a feasible schedule below the bound; the strict
# xfails turn into failures once the bounds are made sound.

UNSOUND = pytest.mark.xfail(
    strict=True, reason="per-job max of two summed relaxations is not a lower bound"
)


@UNSOUND
def test_weighted_completion_bound_below_a_feasible_schedule():
    wide = RigidJob(name="wide", nbproc=3, duration=1.0, weight=1.0)
    heavy = RigidJob(name="heavy", nbproc=1, duration=3.0, weight=3.0)
    schedule = Schedule(4)
    schedule.add(wide, 0.0, [0, 1, 2])
    schedule.add(heavy, 0.0, [3])
    schedule.validate()
    value = weighted_completion_time(schedule)
    assert value == 10.0
    assert bounds.weighted_completion_lower_bound([wide, heavy], 4) <= value


@UNSOUND
def test_sum_completion_bound_below_a_feasible_schedule():
    pair = RigidJob(name="pair", nbproc=2, duration=2.0)
    long = RigidJob(name="long", nbproc=1, duration=3.0)
    schedule = Schedule(3)
    schedule.add(pair, 0.0, [0, 1])
    schedule.add(long, 0.0, [2])
    schedule.validate()
    value = sum_completion_times(schedule)
    assert value == 5.0
    assert bounds.sum_completion_lower_bound([pair, long], 3) <= value
