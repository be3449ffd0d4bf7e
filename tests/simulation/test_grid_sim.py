"""Unit tests of the centralized best-effort grid simulator (section 5.2)."""

import pytest

from repro.core.job import ParametricSweep, RigidJob
from repro.platform.ciment import ciment_grid
from repro.platform.generators import homogeneous_cluster
from repro.platform.grid import LightGrid
from repro.runtime.hooks import GridServer
from repro.simulation.grid_sim import CentralizedGridSimulator
from repro.workload.communities import community_workload
from repro.workload.parametric import generate_parametric_bags


def tiny_grid():
    return LightGrid(
        "tiny",
        [homogeneous_cluster("alpha", 4, community="a"),
         homogeneous_cluster("beta", 2, community="b")],
    )


class TestGridServer:
    def test_run_lifecycle(self):
        bags = [ParametricSweep(name="bag", n_runs=3, run_time=1.0)]
        server = GridServer(bags)
        assert server.remaining_runs == 3
        run = server.next_run()
        server.complete(run, now=5.0)
        assert server.completed["bag"] == 1
        assert server.bag_completion["bag"] is None
        # Kill + resubmit puts the run back at the head of the queue.
        run2 = server.next_run()
        server.resubmit(run2)
        assert server.kills == 1
        assert server.remaining_runs == 2
        assert server.next_run().index == run2.index

    def test_duplicate_bags_rejected(self):
        bags = [ParametricSweep(name="x", n_runs=1, run_time=1.0)] * 2
        with pytest.raises(ValueError):
            GridServer(bags)


class TestCentralizedGridSimulator:
    def test_unknown_cluster_rejected(self):
        simulator = CentralizedGridSimulator(tiny_grid())
        with pytest.raises(ValueError):
            simulator.run({"ghost": []})
        with pytest.raises(ValueError):
            CentralizedGridSimulator(tiny_grid(), local_policy="magic")

    def test_local_jobs_only(self):
        grid = tiny_grid()
        local = {"alpha": [RigidJob(name="a", nbproc=2, duration=4.0)],
                 "beta": [RigidJob(name="b", nbproc=1, duration=2.0)]}
        result = CentralizedGridSimulator(grid).run(local)
        assert result.cluster_criteria["alpha"].makespan == pytest.approx(4.0)
        assert result.cluster_criteria["beta"].makespan == pytest.approx(2.0)
        assert result.kills == 0
        assert result.total_runs_completed == 0

    def test_grid_jobs_fill_idle_clusters(self):
        grid = tiny_grid()
        bags = [ParametricSweep(name="bag", n_runs=12, run_time=1.0)]
        result = CentralizedGridSimulator(grid).run({}, bags)
        assert result.total_runs_completed == 12
        assert result.bag_completion["bag"] is not None
        # 6 processors serving 12 unit runs: done in 2 time units.
        assert result.bag_completion["bag"] == pytest.approx(2.0, rel=0.3)
        assert result.kills == 0
        assert result.grid_throughput() > 0

    def test_local_jobs_kill_best_effort_runs(self):
        grid = tiny_grid()
        bags = [ParametricSweep(name="bag", n_runs=200, run_time=5.0)]
        # A local job arriving at t=1 needs the whole alpha cluster while all
        # processors hold long best-effort runs: kills must occur.
        local = {"alpha": [RigidJob(name="urgent", nbproc=4, duration=3.0, release_date=1.0)]}
        result = CentralizedGridSimulator(grid).run(local, bags)
        assert result.kills >= 4
        assert result.trace.count("kill") == result.kills
        assert result.trace.count("resubmit") == result.kills
        # The local job started as soon as it was submitted.
        assert result.schedules["alpha"]["urgent"].start == pytest.approx(1.0)

    def test_non_disturbance_invariant(self):
        """Local jobs complete exactly as if the grid jobs did not exist."""

        grid = tiny_grid()
        local = {
            "alpha": community_workload("computer-science", 10, 4, random_state=1),
            "beta": community_workload("medical-research", 6, 2, random_state=2),
        }
        bags = generate_parametric_bags(3, runs_range=(20, 40), run_time_range=(0.5, 1.0),
                                        random_state=3)
        with_grid = CentralizedGridSimulator(grid).run(local, bags)
        without_grid = CentralizedGridSimulator(grid, best_effort_enabled=False).run(local, [])
        for cluster in ("alpha", "beta"):
            for entry in without_grid.schedules[cluster]:
                other = with_grid.schedules[cluster][entry.job.name]
                assert other.start == pytest.approx(entry.start)
                assert other.completion == pytest.approx(entry.completion)

    def test_best_effort_disabled(self):
        grid = tiny_grid()
        bags = [ParametricSweep(name="bag", n_runs=5, run_time=1.0)]
        result = CentralizedGridSimulator(grid, best_effort_enabled=False).run({}, bags)
        assert result.total_runs_completed == 0
        assert result.launches == 0

    def test_killed_work_is_eventually_completed(self):
        grid = tiny_grid()
        bags = [ParametricSweep(name="bag", n_runs=30, run_time=2.0)]
        local = {"alpha": [RigidJob(name=f"l{i}", nbproc=2, duration=3.0, release_date=float(i * 2))
                           for i in range(5)]}
        result = CentralizedGridSimulator(grid).run(local, bags)
        assert result.runs_completed["bag"] == 30
        assert result.bag_completion["bag"] is not None
        assert result.launches == 30 + result.kills

    def test_utilization_reported_per_cluster(self):
        grid = tiny_grid()
        bags = [ParametricSweep(name="bag", n_runs=24, run_time=1.0)]
        result = CentralizedGridSimulator(grid).run({}, bags)
        assert set(result.utilization) == {"alpha", "beta"}
        assert all(0.0 <= u <= 1.0 + 1e-9 for u in result.utilization.values())

    def test_ciment_scale_simulation(self):
        """Smoke test on the real Figure-3 platform with community workloads."""

        grid = ciment_grid()
        local = {
            "xeon-cluster": community_workload("numerical-physics", 8, 96, random_state=4),
            "icluster-itanium": community_workload("computer-science", 15, 208, random_state=5),
        }
        bags = generate_parametric_bags(2, runs_range=(50, 100), run_time_range=(0.2, 0.5),
                                        random_state=6)
        result = CentralizedGridSimulator(grid, local_policy="backfill").run(local, bags)
        assert result.total_runs_completed == sum(b.n_runs for b in bags)
        for name, criteria in result.cluster_criteria.items():
            assert criteria.makespan >= 0.0
