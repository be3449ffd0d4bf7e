"""Unit tests of the decentralized load-exchange grid simulator (section 5.2)."""

import pytest

from repro.core.job import MoldableJob, RigidJob
from repro.platform.cluster import Cluster
from repro.platform.generators import homogeneous_cluster
from repro.platform.grid import GridLink, LightGrid
from repro.simulation.decentralized import DecentralizedGridSimulator
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import generate_moldable_jobs


def two_cluster_grid():
    return LightGrid(
        "duo",
        [homogeneous_cluster("busy", 4, community="busy-community"),
         homogeneous_cluster("idle", 4, community="idle-community")],
        [GridLink("busy", "idle", bandwidth=1000.0, latency=0.01)],
    )


def overloaded_submissions(n_jobs=16, seed=1):
    """Everything is submitted to the 'busy' cluster, nothing to 'idle'."""

    jobs = generate_moldable_jobs(n_jobs, 4, random_state=seed)
    jobs = poisson_arrivals(jobs, rate=5.0, random_state=seed)
    return {"busy": jobs, "idle": []}


class TestDecentralizedGridSimulator:
    def test_invalid_arguments(self):
        grid = two_cluster_grid()
        with pytest.raises(ValueError):
            DecentralizedGridSimulator(grid, imbalance_threshold=-1.0)
        with pytest.raises(ValueError):
            DecentralizedGridSimulator(grid, local_policy="magic")
        with pytest.raises(ValueError):
            DecentralizedGridSimulator(grid).run({"ghost": []})

    def test_all_jobs_complete(self):
        grid = two_cluster_grid()
        result = DecentralizedGridSimulator(grid).run(overloaded_submissions())
        total = sum(len(s) for s in result.schedules.values())
        assert total == 16
        for schedule in result.schedules.values():
            schedule.validate()

    def test_exchange_migrates_jobs_to_the_idle_cluster(self):
        grid = two_cluster_grid()
        simulator = DecentralizedGridSimulator(grid, imbalance_threshold=1.0)
        result = simulator.run(overloaded_submissions(24, seed=2))
        assert result.migrations > 0
        assert len(result.schedules["idle"]) > 0
        assert result.trace.count("migrate") == result.migrations

    def test_migrated_jobs_start_no_earlier_than_their_release_date(self):
        grid = two_cluster_grid()
        result = DecentralizedGridSimulator(grid, imbalance_threshold=1.0).run(
            overloaded_submissions(24, seed=2)
        )
        assert result.migrations > 0
        for schedule in result.schedules.values():
            schedule.validate()  # release dates included
            for entry in schedule:
                assert entry.start >= entry.job.release_date - 1e-9

    def test_compute_rates_summed_once_per_node_per_run(self, monkeypatch):
        summed = []
        rate = Cluster.total_compute_rate
        monkeypatch.setattr(
            Cluster, "total_compute_rate",
            property(lambda cluster: summed.append(cluster.name) or rate.fget(cluster)),
        )
        simulator = DecentralizedGridSimulator(two_cluster_grid(), imbalance_threshold=1.0)
        for _ in range(2):
            summed.clear()
            result = simulator.run(overloaded_submissions(24, seed=2))
            assert result.migrations > 0
            assert sorted(summed) == ["busy", "idle"]

    def test_exchange_disabled_keeps_everything_local(self):
        grid = two_cluster_grid()
        simulator = DecentralizedGridSimulator(grid, exchange_enabled=False)
        result = simulator.run(overloaded_submissions(24, seed=2))
        assert result.migrations == 0
        assert len(result.schedules["idle"]) == 0
        assert len(result.schedules["busy"]) == 24

    def test_exchange_improves_mean_flow_under_imbalance(self):
        """Load exchange reduces the mean response time when one cluster is
        overloaded and the other idle (the whole point of the protocol)."""

        grid = two_cluster_grid()
        submissions = overloaded_submissions(30, seed=3)
        with_exchange = DecentralizedGridSimulator(grid, imbalance_threshold=0.5).run(submissions)
        without_exchange = DecentralizedGridSimulator(grid, exchange_enabled=False).run(submissions)
        assert with_exchange.mean_flow < without_exchange.mean_flow
        assert with_exchange.makespan <= without_exchange.makespan + 1e-9

    def test_migration_keeps_job_owner_for_fairness_accounting(self):
        grid = two_cluster_grid()
        jobs = [MoldableJob(name=f"m{i}", runtimes=[20.0], owner="busy-community")
                for i in range(12)]
        result = DecentralizedGridSimulator(grid, imbalance_threshold=0.5).run(
            {"busy": jobs, "idle": []}
        )
        migrated_names = set(result.migrated_jobs)
        assert migrated_names
        # A migrated job may bounce between clusters if the imbalance flips;
        # wherever it ends up, it runs exactly once and keeps its owner.
        for name in migrated_names:
            entries = [s[name] for s in result.schedules.values() if name in s]
            assert len(entries) == 1
            assert entries[0].job.owner == "busy-community"
        assert any(name in result.schedules["idle"] for name in migrated_names)
        assert "busy-community" in result.fairness.usage

    def test_jobs_too_large_for_the_target_stay_put(self):
        grid = LightGrid(
            "asym",
            [homogeneous_cluster("large", 8), homogeneous_cluster("small", 2)],
        )
        jobs = [RigidJob(name=f"wide{i}", nbproc=6, duration=10.0, release_date=float(i))
                for i in range(6)]
        result = DecentralizedGridSimulator(grid, imbalance_threshold=0.1).run(
            {"large": jobs, "small": []}
        )
        assert len(result.schedules["small"]) == 0
        assert len(result.schedules["large"]) == 6

    def test_balanced_load_triggers_no_migration(self):
        grid = two_cluster_grid()
        jobs_a = [RigidJob(name=f"a{i}", nbproc=1, duration=1.0) for i in range(4)]
        jobs_b = [RigidJob(name=f"b{i}", nbproc=1, duration=1.0) for i in range(4)]
        result = DecentralizedGridSimulator(grid, imbalance_threshold=2.0).run(
            {"busy": jobs_a, "idle": jobs_b}
        )
        assert result.migrations == 0

    def test_fairness_report_present(self):
        grid = two_cluster_grid()
        result = DecentralizedGridSimulator(grid).run(overloaded_submissions(10, seed=4))
        assert 0.0 < result.fairness.fairness_on_work <= 1.0 + 1e-9
        assert result.horizon > 0
