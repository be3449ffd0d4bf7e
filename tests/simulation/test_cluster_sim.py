"""Unit tests of the on-line single-cluster simulator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import RigidJob
from repro.core.policies.backfilling import ConservativeBackfilling
from repro.simulation.cluster_sim import ClusterSimulator, compare_policies
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import generate_moldable_jobs, generate_rigid_jobs

#: The basic queue policies of repro.core.policies.online.
QUEUE_POLICIES = ("fifo", "backfill", "smallest-first")


class TestClusterSimulator:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            ClusterSimulator(8, policy="magic")
        with pytest.raises(ValueError):
            ClusterSimulator(0)

    def test_empty_workload(self):
        result = ClusterSimulator(8).run([])
        assert result.makespan == 0.0
        assert len(result.schedule) == 0

    def test_single_job(self):
        job = RigidJob(name="a", nbproc=2, duration=5.0)
        result = ClusterSimulator(4).run([job])
        assert result.makespan == pytest.approx(5.0)
        assert result.schedule["a"].start == 0.0
        assert result.criteria.utilization == pytest.approx(0.5)

    def test_all_jobs_complete_and_schedule_is_valid(self):
        jobs = generate_rigid_jobs(30, 8, random_state=1)
        jobs = poisson_arrivals(jobs, rate=0.5, random_state=1)
        for policy in QUEUE_POLICIES:
            result = ClusterSimulator(8, policy=policy).run(jobs)
            result.schedule.validate()
            assert len(result.schedule) == 30
            assert result.policy == policy

    def test_release_dates_respected(self):
        jobs = [RigidJob(name="a", nbproc=1, duration=1.0, release_date=10.0)]
        result = ClusterSimulator(2).run(jobs)
        assert result.schedule["a"].start >= 10.0

    def test_fifo_does_not_bypass_blocked_head(self):
        jobs = [
            RigidJob(name="running", nbproc=3, duration=10.0, release_date=0.0),
            RigidJob(name="head", nbproc=4, duration=1.0, release_date=1.0),
            RigidJob(name="small", nbproc=1, duration=1.0, release_date=2.0),
        ]
        result = ClusterSimulator(4, policy="fifo").run(jobs)
        # Strict FCFS: "small" must not start before "head".
        assert result.schedule["small"].start >= result.schedule["head"].start - 1e-9

    def test_backfill_uses_idle_processors(self):
        jobs = [
            RigidJob(name="running", nbproc=3, duration=10.0, release_date=0.0),
            RigidJob(name="head", nbproc=4, duration=1.0, release_date=1.0),
            RigidJob(name="small", nbproc=1, duration=1.0, release_date=2.0),
        ]
        result = ClusterSimulator(4, policy="backfill").run(jobs)
        assert result.schedule["small"].start == pytest.approx(2.0)

    def test_moldable_jobs_get_allocations(self):
        jobs = generate_moldable_jobs(15, 8, random_state=2)
        result = ClusterSimulator(8, policy="backfill").run(jobs)
        result.schedule.validate()
        assert len(result.schedule) == 15

    def test_trace_is_consistent_with_schedule(self):
        jobs = generate_rigid_jobs(10, 4, random_state=3)
        result = ClusterSimulator(4).run(jobs)
        assert result.trace.count("submit") == 10
        assert result.trace.count("start") == 10
        assert result.trace.count("complete") == 10
        for entry in result.schedule:
            assert result.trace.first_start(entry.job.name) == pytest.approx(entry.start)

    def test_simulated_fifo_matches_constructed_conservative_for_sequential_jobs(self):
        """On purely sequential jobs with no contention subtleties the on-line
        FIFO simulation and the conservative backfilling construction give the
        same makespan (cross-validation of the two code paths)."""

        jobs = [RigidJob(name=f"j{i}", nbproc=1, duration=2.0, release_date=float(i))
                for i in range(8)]
        simulated = ClusterSimulator(2, policy="fifo").run(jobs)
        constructed = ConservativeBackfilling().schedule(jobs, 2)
        assert simulated.makespan == pytest.approx(constructed.makespan())

    def test_ratios_are_computed(self):
        jobs = generate_rigid_jobs(20, 8, random_state=4)
        result = ClusterSimulator(8).run(jobs)
        assert result.ratios.makespan_ratio >= 1.0 - 1e-9
        assert result.ratios.weighted_completion_ratio >= 1.0 - 1e-9


class TestComparePolicies:
    def test_compares_all_requested_policies(self):
        jobs = generate_rigid_jobs(20, 8, random_state=5)
        jobs = poisson_arrivals(jobs, rate=1.0, random_state=5)
        results = compare_policies(jobs, 8)
        assert set(results) == {"fifo", "backfill", "smallest-first"}
        for result in results.values():
            result.schedule.validate()
            assert len(result.schedule) == 20

    def test_backfill_utilization_at_least_fifo(self):
        jobs = generate_rigid_jobs(40, 8, random_state=6)
        jobs = poisson_arrivals(jobs, rate=2.0, random_state=6)
        results = compare_policies(jobs, 8, policies=("fifo", "backfill"))
        assert results["backfill"].makespan <= results["fifo"].makespan * 1.5 + 1e-9


@settings(max_examples=15, deadline=None)
@given(
    n_jobs=st.integers(min_value=0, max_value=25),
    machines=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2_000),
)
def test_cluster_simulation_always_terminates_with_valid_schedules(n_jobs, machines, seed):
    """Property: the event-driven simulation completes every submitted job."""

    jobs = generate_rigid_jobs(n_jobs, machines, random_state=seed)
    jobs = poisson_arrivals(jobs, rate=1.0, random_state=seed) if jobs else []
    result = ClusterSimulator(machines, policy="backfill").run(jobs)
    result.schedule.validate()
    assert len(result.schedule) == n_jobs
