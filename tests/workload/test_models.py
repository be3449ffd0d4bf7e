"""Unit tests of the synthetic workload generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import MoldableJob, RigidJob
from repro.workload.models import (
    WorkloadConfig,
    figure2_workload,
    generate_mixed_jobs,
    generate_moldable_jobs,
    generate_rigid_jobs,
)


class TestWorkloadConfig:
    def test_defaults_are_valid(self):
        WorkloadConfig()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            WorkloadConfig(runtime_range=(0.0, 10.0))
        with pytest.raises(ValueError):
            WorkloadConfig(runtime_range=(10.0, 1.0))
        with pytest.raises(ValueError):
            WorkloadConfig(weight_scheme="priority")
        with pytest.raises(ValueError):
            WorkloadConfig(sequential_fraction=2.0)

    @pytest.mark.parametrize("field", ["serial_fraction_range", "power_alpha_range"])
    @pytest.mark.parametrize(
        "bounds", [(-0.1, 0.5), (0.2, 1.5), (0.6, 0.3), (-1.0, -0.5), (float("nan"), 0.5)]
    )
    def test_speedup_parameter_ranges_checked_at_the_boundary(self, field, bounds):
        with pytest.raises(ValueError, match=field):
            WorkloadConfig(**{field: bounds})

    @pytest.mark.parametrize("bounds", [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.3, 0.3)])
    def test_speedup_parameter_ranges_accept_closed_unit_interval(self, bounds):
        config = WorkloadConfig(serial_fraction_range=bounds, power_alpha_range=bounds)
        jobs = generate_moldable_jobs(30, 8, config=config, random_state=0)
        assert len(jobs) == 30

    @pytest.mark.parametrize(
        "field, message",
        [("serial_fraction_range", "serial_fraction"), ("power_alpha_range", "alpha")],
    )
    def test_drawn_speedup_parameters_checked_too(self, field, message):
        # A config mutated after construction slips past __post_init__; the
        # generator's vectorised check on the drawn values still refuses it.
        config = WorkloadConfig()
        setattr(config, field, (1.5, 2.0))
        with pytest.raises(ValueError, match=f"{message} must be in \\[0, 1\\]"):
            generate_moldable_jobs(40, 8, config=config, random_state=1)


class TestRigidGenerator:
    def test_reproducible_with_seed(self):
        a = generate_rigid_jobs(20, 16, random_state=5)
        b = generate_rigid_jobs(20, 16, random_state=5)
        assert [(j.nbproc, j.duration) for j in a] == [(j.nbproc, j.duration) for j in b]

    def test_respects_platform_size_and_runtime_range(self):
        config = WorkloadConfig(runtime_range=(2.0, 20.0))
        jobs = generate_rigid_jobs(200, 32, config=config, random_state=1)
        assert all(1 <= j.nbproc <= 32 for j in jobs)
        assert all(2.0 <= j.duration <= 20.0 for j in jobs)

    def test_max_procs_cap(self):
        jobs = generate_rigid_jobs(100, 64, max_procs=4, random_state=2)
        assert all(j.nbproc <= 4 for j in jobs)

    def test_weight_schemes(self):
        unit = generate_rigid_jobs(10, 8, config=WorkloadConfig(weight_scheme="unit"),
                                   random_state=3)
        assert all(j.weight == 1.0 for j in unit)
        work = generate_rigid_jobs(10, 8, config=WorkloadConfig(weight_scheme="work"),
                                   random_state=3)
        for job in work:
            assert job.weight == pytest.approx(job.duration * job.nbproc)

    def test_zero_jobs(self):
        assert generate_rigid_jobs(0, 8) == []
        with pytest.raises(ValueError):
            generate_rigid_jobs(-1, 8)


class TestMoldableGenerator:
    def test_profiles_are_monotonic_and_within_platform(self):
        jobs = generate_moldable_jobs(100, 16, random_state=4)
        for job in jobs:
            assert isinstance(job, MoldableJob)
            assert job.max_procs <= 16
            # MoldableJob enforces monotony at construction; spot-check anyway.
            assert job.best_runtime() <= job.sequential_time() + 1e-12

    def test_sequential_fraction_one_gives_sequential_jobs(self):
        config = WorkloadConfig(sequential_fraction=1.0)
        jobs = generate_moldable_jobs(30, 16, config=config, random_state=5)
        assert all(job.max_procs == 1 for job in jobs)

    def test_reproducible(self):
        a = generate_moldable_jobs(15, 8, random_state=9)
        b = generate_moldable_jobs(15, 8, random_state=9)
        assert [j.runtimes for j in a] == [j.runtimes for j in b]


class TestMixedGenerator:
    def test_rigid_fraction(self):
        jobs = generate_mixed_jobs(40, 16, rigid_fraction=0.25, random_state=6)
        rigid = [j for j in jobs if isinstance(j, RigidJob)]
        assert len(rigid) == 10
        assert len(jobs) == 40

    def test_names_are_unique(self):
        jobs = generate_mixed_jobs(50, 8, random_state=7)
        assert len({j.name for j in jobs}) == 50

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            generate_mixed_jobs(10, 8, rigid_fraction=1.5)


class TestFigure2Workload:
    def test_non_parallel_family_is_sequential(self):
        jobs = figure2_workload(50, 100, family="non_parallel", random_state=1)
        assert all(job.max_procs == 1 for job in jobs)

    def test_parallel_family_has_parallel_jobs(self):
        jobs = figure2_workload(50, 100, family="parallel", random_state=1)
        assert any(job.max_procs > 1 for job in jobs)
        assert all(job.max_procs <= 100 for job in jobs)

    def test_weights_follow_work_by_default(self):
        jobs = figure2_workload(20, 100, family="parallel", random_state=2)
        for job in jobs:
            assert job.weight == pytest.approx(job.sequential_time())

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            figure2_workload(10, 100, family="hybrid")


@settings(max_examples=25, deadline=None)
@given(
    n_jobs=st.integers(min_value=0, max_value=50),
    machines=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_generators_always_produce_schedulable_jobs(n_jobs, machines, seed):
    """Property: generated jobs always fit the platform they were generated for."""

    moldable = generate_moldable_jobs(n_jobs, machines, random_state=seed)
    rigid = generate_rigid_jobs(n_jobs, machines, random_state=seed)
    assert len(moldable) == n_jobs
    assert len(rigid) == n_jobs
    assert all(j.min_procs <= machines for j in moldable)
    assert all(j.nbproc <= machines for j in rigid)
    assert len({j.name for j in moldable + rigid}) == 2 * n_jobs
