"""Unit tests of the job models (rigid, moldable, malleable, divisible)."""

import math

import pytest

from repro.core.job import (
    DivisibleJob,
    JobKind,
    MalleableJob,
    MoldableJob,
    ParametricSweep,
    RigidJob,
    validate_jobs,
)


class TestJobBase:
    def test_negative_release_date_rejected(self):
        with pytest.raises(ValueError):
            RigidJob(name="x", release_date=-1.0, nbproc=1, duration=1.0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            RigidJob(name="x", weight=-0.5, nbproc=1, duration=1.0)

    @pytest.mark.parametrize("value", [float("nan"), math.inf])
    def test_non_finite_release_date_rejected(self, value):
        with pytest.raises(ValueError, match="job 'x': release date must be finite"):
            RigidJob(name="x", release_date=value, nbproc=1, duration=1.0)

    @pytest.mark.parametrize("value", [float("nan"), math.inf])
    def test_non_finite_weight_rejected(self, value):
        with pytest.raises(ValueError, match="job 'x': weight must be finite"):
            RigidJob(name="x", weight=value, nbproc=1, duration=1.0)

    @pytest.mark.parametrize("field", ["release_date", "weight"])
    def test_negative_values_keep_their_messages(self, field):
        with pytest.raises(ValueError, match=f"job 'x': negative {field.replace('_date', ' date')}"):
            RigidJob(name="x", nbproc=1, duration=1.0, **{field: -math.inf})

    def test_non_finite_release_fails_at_construction_not_in_the_kernel(self):
        for make in (
            lambda: MoldableJob(name="m", runtimes=[1.0], release_date=float("nan")),
            lambda: ParametricSweep(name="p", n_runs=2, run_time=1.0, weight=math.inf),
        ):
            with pytest.raises(ValueError, match="must be finite"):
                make()

    def test_zero_release_date_and_weight_stay_valid(self):
        job = RigidJob(name="x", release_date=0.0, weight=0.0, nbproc=1, duration=1.0)
        assert (job.release_date, job.weight) == (0.0, 0.0)

    def test_due_date_before_release_rejected(self):
        with pytest.raises(ValueError):
            RigidJob(name="x", release_date=10.0, due_date=5.0, nbproc=1, duration=1.0)

    def test_equality_and_hash_by_name(self):
        a = RigidJob(name="same", nbproc=1, duration=1.0)
        b = RigidJob(name="same", nbproc=2, duration=9.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != "same"


class TestRigidJob:
    def test_kind_and_runtime(self):
        job = RigidJob(name="r", nbproc=4, duration=3.0)
        assert job.kind is JobKind.RIGID
        assert job.runtime(4) == 3.0
        assert job.work(4) == 12.0

    def test_runtime_wrong_allocation_rejected(self):
        job = RigidJob(name="r", nbproc=4, duration=3.0)
        with pytest.raises(ValueError):
            job.runtime(3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RigidJob(name="r", nbproc=0, duration=1.0)
        with pytest.raises(ValueError, match="duration must be > 0"):
            RigidJob(name="r", nbproc=1, duration=0.0)

    @pytest.mark.parametrize("duration", [math.nan, math.inf])
    def test_non_finite_duration_rejected(self, duration):
        # ``nan <= 0`` is False: a NaN duration used to reach the event
        # kernel, which refuses the completion at a non-finite time.
        with pytest.raises(ValueError, match="duration must be finite"):
            RigidJob(name="r", nbproc=1, duration=duration)

    def test_negative_infinite_duration_keeps_the_positive_message(self):
        with pytest.raises(ValueError, match="duration must be > 0"):
            RigidJob(name="r", nbproc=1, duration=-math.inf)

    def test_largest_finite_duration_accepted(self):
        job = RigidJob(name="r", nbproc=2, duration=1e308)
        assert job.runtime(2) == 1e308


class TestMoldableJob:
    def test_profile_lookup(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0, 4.5, 4.0])
        assert job.kind is JobKind.MOLDABLE
        assert job.max_procs == 4
        assert job.runtime(1) == 10.0
        assert job.runtime(4) == 4.0
        assert job.sequential_time() == 10.0
        assert job.best_runtime() == 4.0

    def test_work_and_min_work(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0, 4.5, 4.0])
        assert job.work(2) == 12.0
        assert job.min_work() == 10.0  # sequential execution has least work

    def test_out_of_range_allocation_rejected(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0])
        with pytest.raises(ValueError):
            job.runtime(0)
        with pytest.raises(ValueError):
            job.runtime(3)

    def test_min_procs_constraint(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0, 4.5], min_procs=2)
        with pytest.raises(ValueError):
            job.runtime(1)
        assert job.sequential_time() == 6.0
        assert job.min_work() == 12.0

    def test_non_monotonic_runtime_rejected(self):
        with pytest.raises(ValueError):
            MoldableJob(name="m", runtimes=[10.0, 12.0])

    def test_non_monotonic_work_rejected(self):
        # work(2) = 8 < work(1) = 10 -> super-linear speedup is rejected
        with pytest.raises(ValueError):
            MoldableJob(name="m", runtimes=[10.0, 4.0])

    def test_monotony_can_be_disabled(self):
        job = MoldableJob(name="m", runtimes=[10.0, 12.0], enforce_monotony=False)
        assert job.runtime(2) == 12.0

    def test_canonical_allocation(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0, 4.5, 4.0])
        assert job.canonical_allocation(10.0) == 1
        assert job.canonical_allocation(6.0) == 2
        assert job.canonical_allocation(5.0) == 3
        assert job.canonical_allocation(4.0) == 4
        assert job.canonical_allocation(3.0) is None

    def test_canonical_allocation_respects_min_procs(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0, 4.5], min_procs=2)
        assert job.canonical_allocation(100.0) == 2

    def test_from_speedup(self):
        job = MoldableJob.from_speedup("m", sequential_time=8.0, max_procs=4,
                                       model=lambda k: float(k))
        assert job.runtime(1) == pytest.approx(8.0)
        assert job.runtime(4) == pytest.approx(2.0)

    def test_as_rigid(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0], weight=3.0, owner="phy")
        rigid = job.as_rigid(2)
        assert isinstance(rigid, RigidJob)
        assert rigid.nbproc == 2
        assert rigid.duration == 6.0
        assert rigid.weight == 3.0
        assert rigid.owner == "phy"

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            MoldableJob(name="m", runtimes=[])

    def test_nonpositive_runtime_rejected(self):
        with pytest.raises(ValueError):
            MoldableJob(name="m", runtimes=[1.0, 0.0], enforce_monotony=False)


class TestMalleableJob:
    def test_rate_and_time_to_finish(self):
        job = MalleableJob(name="mal", total_work=100.0, efficiency=lambda k: 1.0)
        assert job.kind is JobKind.MALLEABLE
        assert job.rate(4) == 4.0
        assert job.time_to_finish(100.0, 4) == 25.0
        assert job.time_to_finish(0.0, 4) == 0.0
        assert math.isinf(job.time_to_finish(1.0, 0))

    def test_invalid_efficiency_rejected(self):
        # An efficiency above 1 is rejected as soon as it is evaluated (the
        # constructor derives the sequential runtime, so it already fails).
        with pytest.raises(ValueError):
            MalleableJob(name="mal", total_work=10.0, efficiency=lambda k: 2.0).rate(2)


class TestDivisibleJob:
    def test_runtime_and_split(self):
        job = DivisibleJob(name="d", load=100.0)
        assert job.kind is JobKind.DIVISIBLE
        assert job.runtime(4) == 25.0
        assert job.split([0.5, 0.25, 0.25]) == [50.0, 25.0, 25.0]

    def test_split_must_sum_to_one(self):
        job = DivisibleJob(name="d", load=100.0)
        with pytest.raises(ValueError):
            job.split([0.5, 0.2])
        with pytest.raises(ValueError):
            job.split([1.5, -0.5])

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            DivisibleJob(name="d", load=0.0)


class TestParametricSweep:
    def test_total_work_and_runtime(self):
        bag = ParametricSweep(name="s", n_runs=10, run_time=2.0)
        assert bag.total_work == 20.0
        assert bag.runtime(1) == 20.0
        assert bag.runtime(4) == 6.0  # ceil(10/4)=3 waves of 2.0
        assert bag.kind is JobKind.DIVISIBLE

    def test_as_divisible(self):
        bag = ParametricSweep(name="s", n_runs=10, run_time=2.0, owner="astro")
        divisible = bag.as_divisible()
        assert divisible.load == 20.0
        assert divisible.owner == "astro"

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ParametricSweep(name="s", n_runs=0, run_time=1.0)
        with pytest.raises(ValueError):
            ParametricSweep(name="s", n_runs=1, run_time=0.0)

    @pytest.mark.parametrize("run_time", [math.nan, math.inf, -math.inf])
    def test_non_finite_run_time_rejected(self, run_time):
        # ``nan <= 0`` is False: without a finiteness check a NaN run time
        # would give every best-effort run a NaN duration.
        with pytest.raises(ValueError, match="run_time must be finite"):
            ParametricSweep(name="s", n_runs=1, run_time=run_time)


class TestHelpers:
    def test_validate_jobs_rejects_duplicates(self):
        jobs = [RigidJob(name="x", nbproc=1, duration=1.0),
                RigidJob(name="x", nbproc=2, duration=2.0)]
        with pytest.raises(ValueError):
            validate_jobs(jobs)
