"""Unit tests of the optimisation criteria of section 3."""

import pytest

from repro.core import criteria
from repro.core.allocation import Schedule
from repro.core.criteria import ALL_CRITERIA, CriteriaReport
from repro.core.job import MoldableJob, RigidJob


@pytest.fixture
def simple_schedule():
    """Two sequential jobs on one processor, known completion times."""

    schedule = Schedule(1)
    schedule.add(RigidJob(name="a", nbproc=1, duration=2.0, weight=3.0), 0.0, [0])
    schedule.add(RigidJob(name="b", nbproc=1, duration=4.0, weight=1.0,
                          release_date=1.0, due_date=5.0), 2.0, [0])
    return schedule


class TestElementaryCriteria:
    def test_makespan(self, simple_schedule):
        assert criteria.makespan(simple_schedule) == 6.0

    def test_sum_and_mean_completion(self, simple_schedule):
        assert criteria.sum_completion_times(simple_schedule) == 2.0 + 6.0
        assert criteria.mean_completion_time(simple_schedule) == 4.0

    def test_weighted_completion(self, simple_schedule):
        assert criteria.weighted_completion_time(simple_schedule) == 3.0 * 2.0 + 1.0 * 6.0

    def test_flow_and_stretch(self, simple_schedule):
        assert criteria.mean_stretch(simple_schedule) == pytest.approx(3.5)
        assert criteria.sum_stretch(simple_schedule) == pytest.approx(7.0)
        assert criteria.max_stretch(simple_schedule) == 5.0

    def test_normalized_stretch(self, simple_schedule):
        # job a: flow 2, best runtime 2 -> 1 ; job b: flow 5, best runtime 4 -> 1.25
        assert criteria.mean_normalized_stretch(simple_schedule) == pytest.approx(1.125)
        assert criteria.max_normalized_stretch(simple_schedule) == pytest.approx(1.25)

    def test_throughput(self, simple_schedule):
        assert criteria.throughput(simple_schedule) == pytest.approx(2 / 6.0)
        assert criteria.throughput(simple_schedule, horizon=2.0) == pytest.approx(0.5)

    def test_tardiness(self, simple_schedule):
        # "a" has no due date; "b" completes at 6, due 5.
        assert criteria.total_tardiness(simple_schedule) == pytest.approx(1.0)
        assert criteria.max_tardiness(simple_schedule) == pytest.approx(1.0)
        assert criteria.late_job_count(simple_schedule) == 1

    def test_normalized_makespan(self, simple_schedule):
        # total work = 6 on 1 machine -> bound 6 -> ratio 1
        assert criteria.normalized_makespan(simple_schedule) == pytest.approx(1.0)

    def test_empty_schedule_criteria(self):
        empty = Schedule(4)
        assert criteria.makespan(empty) == 0.0
        assert criteria.mean_completion_time(empty) == 0.0
        assert criteria.mean_stretch(empty) == 0.0
        assert criteria.max_stretch(empty) == 0.0
        assert criteria.throughput(empty) == 0.0
        assert criteria.total_tardiness(empty) == 0.0


class TestCriteriaReport:
    def test_report_matches_individual_functions(self, simple_schedule):
        report = CriteriaReport.from_schedule(simple_schedule)
        assert report.n_jobs == 2
        assert report.makespan == criteria.makespan(simple_schedule)
        assert report.weighted_completion == criteria.weighted_completion_time(simple_schedule)
        assert report.late_jobs == 1
        as_dict = report.as_dict()
        assert set(as_dict) >= {"makespan", "weighted_completion", "mean_stretch"}

    def test_registry_is_callable_on_any_schedule(self, simple_schedule):
        for name, function in ALL_CRITERIA.items():
            value = function(simple_schedule)
            assert isinstance(value, (int, float)), name


class TestMoldableCriteria:
    def test_normalized_stretch_uses_best_runtime(self):
        job = MoldableJob(name="m", runtimes=[8.0, 4.0], release_date=0.0)
        schedule = Schedule(2)
        schedule.add(job, 0.0, [0])   # runs sequentially: completion 8
        # best runtime is 4 -> normalised stretch 2
        assert criteria.max_normalized_stretch(schedule) == pytest.approx(2.0)
