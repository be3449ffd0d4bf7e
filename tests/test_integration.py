"""Integration tests across modules: workloads -> policies -> metrics -> reports.

These tests exercise the full pipelines a user of the library would run: the
"which policy for which application" comparison, the Figure 2 pipeline, the
DLT policy comparison on a platform built from the CIMENT description, and
the two grid organisations of section 5.2 compared on the same workload.
"""

import pytest

from repro.core.bounds import makespan_lower_bound
from repro.core.criteria import CriteriaReport, makespan, weighted_completion_time
from repro.core.dlt import (
    DLTPlatform,
    multi_round_distribution,
    star_single_round,
    steady_state_throughput,
    work_stealing_distribution,
)
from repro.core.policies import (
    BiCriteriaScheduler,
    ConservativeBackfilling,
    EasyBackfilling,
    ListScheduler,
    MRTScheduler,
    SmartShelfScheduler,
)
from repro.experiments.reporting import ascii_table
from repro.metrics.ratios import schedule_ratios
from repro.platform.ciment import ciment_grid
from repro.simulation.decentralized import DecentralizedGridSimulator
from repro.simulation.grid_sim import CentralizedGridSimulator
from repro.workload.arrivals import poisson_arrivals
from repro.workload.communities import community_workload
from repro.workload.models import (
    WorkloadConfig,
    generate_moldable_jobs,
    generate_rigid_jobs,
)
from repro.workload.parametric import generate_parametric_bags


class TestPolicyComparisonPipeline:
    """'Which policy for which application?' -- run several policies on the
    same workloads and check that each wins on the criterion it targets."""

    def test_makespan_policies_vs_completion_time_policies(self):
        machine_count = 32
        jobs = generate_moldable_jobs(
            60, machine_count, config=WorkloadConfig(weight_scheme="work"), random_state=42
        )
        mrt = MRTScheduler().schedule(jobs, machine_count)
        bicriteria = BiCriteriaScheduler().schedule(jobs, machine_count)
        sequential_wspt = ListScheduler("wspt").schedule(jobs, machine_count)
        for schedule in (mrt, bicriteria, sequential_wspt):
            schedule.validate()
        # MRT targets the makespan: it must be the best of the three there.
        assert makespan(mrt) <= makespan(bicriteria) + 1e-9
        assert makespan(mrt) <= makespan(sequential_wspt) + 1e-9
        # The bi-criteria schedule is not much worse than the best of each
        # criterion (that is its guarantee).
        assert makespan(bicriteria) <= 4 * makespan(mrt) + 1e-9
        assert weighted_completion_time(bicriteria) <= 4 * weighted_completion_time(
            sequential_wspt
        ) + 1e-9

    def test_rigid_policies_comparison_table(self):
        machine_count = 16
        jobs = generate_rigid_jobs(50, machine_count, random_state=7)
        jobs = poisson_arrivals(jobs, rate=1.0, random_state=7)
        rows = []
        for policy in (ConservativeBackfilling(), EasyBackfilling()):
            schedule = policy.schedule(jobs, machine_count)
            schedule.validate()
            report = schedule_ratios(schedule, jobs, machine_count=machine_count)
            rows.append({"policy": policy.name, "cmax_ratio": report.makespan_ratio})
        table = ascii_table(rows)
        assert "conservative-backfilling" in table
        assert all(row["cmax_ratio"] < 5.0 for row in rows)

    def test_smart_shelves_for_completion_time_application(self):
        machine_count = 16
        jobs = generate_rigid_jobs(
            60, machine_count, config=WorkloadConfig(weight_scheme="random"), random_state=17
        )
        smart = SmartShelfScheduler().schedule(jobs, machine_count)
        lpt = ListScheduler("lpt").schedule(jobs, machine_count)
        # SMART targets the weighted completion time: it should beat plain LPT.
        assert weighted_completion_time(smart) <= weighted_completion_time(lpt) * 1.2 + 1e-9


class TestDLTPipeline:
    def test_distribution_modes_on_a_ciment_cluster(self):
        grid = ciment_grid()
        platform = DLTPlatform.from_cluster(grid.cluster("athlon-cluster-a"),
                                            data_per_unit=0.1)
        load = 5_000.0
        single = star_single_round(load, platform)
        multi = multi_round_distribution(load, platform, rounds=4)
        dynamic = work_stealing_distribution(load, platform)
        steady = steady_state_throughput(platform)
        # All modes process the whole load.
        assert sum(single.loads) == pytest.approx(load)
        assert sum(multi.per_worker_load.values()) == pytest.approx(load)
        assert dynamic.total_load == pytest.approx(load)
        # The steady-state rate bounds every finite schedule from below.
        asymptotic = load / steady.throughput
        for result in (single.makespan, multi.makespan, dynamic.makespan):
            assert result >= asymptotic * 0.99

    def test_grid_level_divisible_load_uses_the_fast_cluster_most(self):
        grid = ciment_grid()
        platform = DLTPlatform.from_grid(grid, data_per_unit=0.01)
        result = star_single_round(100_000.0, platform)
        loads = dict(zip(result.order, result.loads))
        assert loads["icluster-itanium"] == max(loads.values())


class TestGridOrganisationsPipeline:
    def test_centralized_vs_decentralized_on_the_same_workload(self):
        grid = ciment_grid()
        local = {
            "icluster-itanium": community_workload("computer-science", 12, 208, random_state=1),
            "xeon-cluster": community_workload("numerical-physics", 6, 96, random_state=2),
            "athlon-cluster-a": community_workload("astrophysics", 8, 80, random_state=3),
            "athlon-cluster-b": community_workload("medical-research", 8, 48, random_state=4),
        }
        bags = generate_parametric_bags(3, runs_range=(30, 60), run_time_range=(0.2, 0.6),
                                        random_state=5)

        centralized = CentralizedGridSimulator(grid, local_policy="backfill").run(local, bags)
        assert centralized.total_runs_completed == sum(b.n_runs for b in bags)

        decentralized = DecentralizedGridSimulator(grid, imbalance_threshold=10.0).run(local)
        total_jobs = sum(len(jobs) for jobs in local.values())
        scheduled = sum(len(s) for s in decentralized.schedules.values())
        assert scheduled == total_jobs

        # Both organisations produce full criteria reports per cluster.
        for name in grid.cluster_names:
            assert isinstance(centralized.cluster_criteria[name], CriteriaReport)
            assert isinstance(decentralized.criteria[name], CriteriaReport)


class TestEndToEndRatios:
    def test_every_policy_stays_within_documented_factor_of_the_bound(self):
        machine_count = 24
        jobs = generate_moldable_jobs(40, machine_count, random_state=99)
        bound = makespan_lower_bound(jobs, machine_count)
        policies = {
            # 2.0 is the pragmatic worst-case factor of this MRT implementation
            # (see repro.core.policies.mrt); the 3/2 + eps behaviour is checked
            # on the benchmark instances in tests/core/policies/test_mrt.py.
            "mrt": (MRTScheduler(), 2.0),
            "bicriteria": (BiCriteriaScheduler(), 8.0),
            "list-lpt": (ListScheduler("lpt"), 4.0),
        }
        for name, (policy, factor) in policies.items():
            schedule = policy.schedule(jobs, machine_count)
            schedule.validate()
            assert makespan(schedule) <= factor * bound + 1e-9, name
