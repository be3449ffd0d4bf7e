"""Unit tests of the unified scheduling runtime (lifecycle, hooks, record)."""

import pytest

from repro.core.job import MoldableJob, RigidJob
from repro.core.policies import FifoPolicy, SchedulerError
from repro.experiments.reporting import runs_table, simulation_table
from repro.platform.generators import homogeneous_cluster
from repro.platform.grid import GridLink, LightGrid
from repro.runtime import ClusterNode, SchedulingRuntime, SimulationRecord
from repro.runtime.golden import cluster_result_payload, digest_of
from repro.simulation.cluster_sim import ClusterSimulator, compare_policies
from repro.simulation.decentralized import DecentralizedGridSimulator
from repro.simulation.grid_sim import CentralizedGridSimulator
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import generate_moldable_jobs


def blocked_head_jobs():
    """A head-of-queue blocker: FCFS keeps 'small' waiting, backfilling not."""

    return [
        RigidJob(name="running", nbproc=3, duration=10.0, release_date=0.0),
        RigidJob(name="head", nbproc=4, duration=1.0, release_date=1.0),
        RigidJob(name="small", nbproc=1, duration=1.0, release_date=2.0),
    ]


def duo_grid(size=4):
    return LightGrid(
        "duo",
        [homogeneous_cluster("alpha", size, community="a"),
         homogeneous_cluster("beta", size, community="b")],
        [GridLink("alpha", "beta", bandwidth=1000.0, latency=0.01)],
    )


class TestRuntimeCore:
    def test_rejects_empty_and_duplicate_nodes(self):
        with pytest.raises(ValueError):
            SchedulingRuntime([])
        nodes = [
            ClusterNode("x", 2, policy=FifoPolicy()),
            ClusterNode("x", 2, policy=FifoPolicy()),
        ]
        with pytest.raises(ValueError):
            SchedulingRuntime(nodes)

    def test_rejects_unknown_submission_cluster(self):
        runtime = SchedulingRuntime([ClusterNode("x", 2, policy=FifoPolicy())])
        with pytest.raises(ValueError):
            runtime.run({"ghost": []})

    def test_starvation_raises_scheduler_error(self):
        class NeverStart(FifoPolicy):
            name = "never"

            def select(self, queue, free, now, machine_count):
                return []

        node = ClusterNode("x", 2, policy=NeverStart())
        runtime = SchedulingRuntime([node])
        with pytest.raises(SchedulerError):
            runtime.run({"x": [RigidJob(name="a", nbproc=1, duration=1.0)]})


class TestPerClusterPolicies:
    def test_each_cluster_runs_its_own_policy(self):
        grid = duo_grid()
        jobs_a = blocked_head_jobs()
        jobs_b = [
            RigidJob(name=j.name + "2", nbproc=j.nbproc, duration=j.duration,
                     release_date=j.release_date)
            for j in blocked_head_jobs()
        ]
        simulator = DecentralizedGridSimulator(
            grid,
            local_policy={"alpha": "fifo", "beta": "backfill"},
            exchange_enabled=False,
        )
        result = simulator.run({"alpha": jobs_a, "beta": jobs_b})
        assert result.policies == {"alpha": "fifo", "beta": "backfill"}
        # FCFS on alpha: 'small' waits behind the blocked head of queue.
        assert result.schedules["alpha"]["small"].start >= 10.0
        # Backfilling on beta: 'small2' starts immediately on the idle proc.
        assert result.schedules["beta"]["small2"].start == pytest.approx(2.0)

    def test_centralized_grid_accepts_policy_mapping(self):
        grid = duo_grid()
        simulator = CentralizedGridSimulator(
            grid, local_policy={"alpha": "backfill", "beta": "fifo"}
        )
        result = simulator.run({"alpha": blocked_head_jobs()})
        assert result.policies == {"alpha": "backfill", "beta": "fifo"}
        assert result.schedules["alpha"]["small"].start == pytest.approx(2.0)

    def test_unknown_cluster_in_policy_mapping_rejected(self):
        with pytest.raises(ValueError):
            CentralizedGridSimulator(duo_grid(), local_policy={"ghost": "fifo"})

    def test_partial_mapping_falls_back_to_the_simulator_default(self):
        # Decentralized default is "backfill"; centralized default is "fifo".
        decentralized = DecentralizedGridSimulator(
            duo_grid(), local_policy={"alpha": "smallest-first"}
        )
        assert decentralized._policies["beta"].name == "backfill"
        centralized = CentralizedGridSimulator(
            duo_grid(), local_policy={"alpha": "smallest-first"}
        )
        assert centralized._policies["beta"].name == "fifo"


class TestPolicySwitch:
    def test_switch_changes_behavior_mid_run(self):
        jobs = blocked_head_jobs()
        fifo = ClusterSimulator(4, policy="fifo").run(jobs)
        switched = ClusterSimulator(
            4, policy="fifo", policy_switches=[(1.5, "backfill")]
        ).run(jobs)
        # Pure FCFS: 'small' waits for the blocked head.
        assert fifo.schedule["small"].start >= 10.0
        # After the switch at t=1.5 the backfilling policy starts it at release.
        assert switched.schedule["small"].start == pytest.approx(2.0)
        assert switched.policy == "backfill"
        assert fifo.policy == "fifo"

    def test_switch_is_traced(self):
        result = ClusterSimulator(
            4, policy="fifo", policy_switches=[(1.5, "backfill")]
        ).run(blocked_head_jobs())
        events = result.trace.events("policy-switch")
        assert len(events) == 1
        assert events[0].time == pytest.approx(1.5)
        assert events[0].job == "backfill"

    def test_switch_keeps_the_custom_allocator(self):
        from repro.core.policies import MoldableAllocator

        simulator = ClusterSimulator(
            8,
            policy="fifo",
            allocator=MoldableAllocator("min_runtime"),
            policy_switches=[(1.0, "backfill")],
        )
        # min_runtime allocates all 3 processors; the default
        # bounded_efficiency strategy stops at 2 (efficiency 0.485 < 0.5).
        jobs = [MoldableJob(name="m", runtimes=[8.0, 6.0, 5.5], release_date=2.0)]
        default_alloc = ClusterSimulator(8, policy="backfill").run(jobs)
        assert default_alloc.schedule["m"].nbproc == 2
        result = simulator.run(jobs)
        assert result.policy == "backfill"
        assert result.schedule["m"].nbproc == 3

    def test_negative_switch_time_rejected(self):
        from repro.runtime.hooks import PolicySwitchHook

        with pytest.raises(ValueError):
            PolicySwitchHook([(-1.0, None, "fifo")])

    def test_unknown_switch_policy_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ClusterSimulator(4, policy_switches=[(5.0, "not-a-policy")])

    def test_switch_accepts_a_policy_instance(self):
        from repro.core.policies import BackfillPolicy

        result = ClusterSimulator(
            4, policy="fifo", policy_switches=[(1.5, BackfillPolicy())]
        ).run(blocked_head_jobs())
        assert result.policy == "backfill"
        assert result.schedule["small"].start == pytest.approx(2.0)

    def test_unknown_switch_cluster_rejected(self):
        from repro.runtime.hooks import PolicySwitchHook

        node = ClusterNode("x", 2, policy=FifoPolicy())
        runtime = SchedulingRuntime(
            [node], hooks=[PolicySwitchHook([(1.0, "ghost", "fifo")])]
        )
        with pytest.raises(ValueError, match="unknown cluster"):
            runtime.run({"x": []})


class TestDeterministicTieBreaking:
    def test_simulation_is_independent_of_input_job_order(self):
        """Duplicate release dates and sizes: submissions are keyed on
        (release_date, name), so any input permutation produces the
        bit-identical schedule, trace and criteria.  (Only the ratio report
        keeps the caller's job order, for float-summation stability.)"""

        jobs = [
            RigidJob(name=f"dup-{i}", nbproc=2, duration=3.0, release_date=1.0)
            for i in range(8)
        ] + [
            MoldableJob(name=f"mold-{i}", runtimes=[6.0, 3.2], release_date=1.0)
            for i in range(4)
        ]
        reference = {}
        for order in (jobs, list(reversed(jobs)), jobs[1::2] + jobs[0::2]):
            for policy in ("fifo", "backfill", "smallest-first"):
                result = ClusterSimulator(4, policy=policy).run(order)
                payload = cluster_result_payload(result)
                del payload["ratios"]  # computed from the caller's job order
                digest = digest_of(payload)
                if policy not in reference:
                    reference[policy] = digest
                assert digest == reference[policy], (
                    f"policy {policy}: input order changed the simulation"
                )

    def test_smallest_first_breaks_size_ties_by_name(self):
        jobs = [
            RigidJob(name=name, nbproc=1, duration=2.0, release_date=0.0)
            for name in ("zeta", "alpha", "mu")
        ]
        result = ClusterSimulator(1, policy="smallest-first").run(jobs)
        starts = sorted(
            (entry.start, entry.job.name) for entry in result.schedule
        )
        assert [name for _, name in starts] == ["alpha", "mu", "zeta"]


class TestSimulationRecord:
    def test_cluster_compat_surface(self):
        jobs = poisson_arrivals(
            generate_moldable_jobs(12, 8, random_state=3), rate=1.0, random_state=3
        )
        result = ClusterSimulator(8, policy="backfill").run(jobs)
        assert isinstance(result, SimulationRecord)
        assert result.mode == "cluster"
        assert result.policy == "backfill"
        assert result.machine_count == 8
        assert result.makespan == pytest.approx(result.criteria.makespan)
        assert result.ratios.makespan_ratio >= 1.0 - 1e-9
        assert len(result.schedule) == 12
        runs = result.runs()
        assert len(runs) == 12
        assert all(r.end == pytest.approx(r.start + r.runtime) for r in runs)
        summary = result.summary()
        assert summary["n_jobs"] == 12
        assert summary["policy"] == "backfill"

    def test_grid_records_share_the_model(self):
        grid = duo_grid()
        centralized = CentralizedGridSimulator(grid).run(
            {"alpha": blocked_head_jobs()}
        )
        decentralized = DecentralizedGridSimulator(grid).run(
            {"alpha": blocked_head_jobs(), "beta": []}
        )
        assert isinstance(centralized, SimulationRecord)
        assert isinstance(decentralized, SimulationRecord)
        assert centralized.mode == "grid-centralized"
        assert decentralized.mode == "grid-decentralized"
        assert set(centralized.cluster_criteria) == {"alpha", "beta"}
        assert centralized.grid_throughput() == 0.0
        assert sum(c.n_jobs for c in decentralized.criteria.values()) == 3
        assert decentralized.fairness is not None
        # The multi-cluster record refuses the ambiguous single-schedule view.
        with pytest.raises(AttributeError):
            _ = centralized.schedule

    def test_unknown_mode_rejected(self):
        from repro.simulation.tracing import Trace

        with pytest.raises(ValueError):
            SimulationRecord(
                mode="galactic",
                machine_count=1,
                schedules={},
                cluster_criteria={},
                trace=Trace(),
                horizon=0.0,
            )


class TestUnifiedReporting:
    def test_simulation_table_mixes_all_three_organisations(self):
        grid = duo_grid()
        records = {
            "cluster": ClusterSimulator(4, policy="backfill").run(blocked_head_jobs()),
            "centralized": CentralizedGridSimulator(grid).run(
                {"alpha": blocked_head_jobs()}
            ),
            "decentralized": DecentralizedGridSimulator(grid).run(
                {"alpha": blocked_head_jobs(), "beta": []}
            ),
        }
        table = simulation_table(records, title="all organisations")
        assert "cluster" in table and "centralized" in table and "decentralized" in table
        assert "makespan" in table
        assert "migrations" in table  # decentralized column joins the union

    def test_compare_policies_feeds_the_table_directly(self):
        jobs = poisson_arrivals(
            generate_moldable_jobs(10, 8, random_state=5), rate=1.0, random_state=5
        )
        results = compare_policies(jobs, 8)
        table = simulation_table(results)
        for name in ("fifo", "backfill", "smallest-first"):
            assert name in table

    def test_runs_include_best_effort_executions(self):
        from repro.core.job import ParametricSweep

        grid = duo_grid()
        bags = [ParametricSweep(name="bag", n_runs=6, run_time=1.0)]
        result = CentralizedGridSimulator(grid).run(
            {"alpha": [RigidJob(name="local", nbproc=2, duration=2.0)]}, bags
        )
        runs = result.runs()
        best_effort = [r for r in runs if r.kind == "best-effort"]
        local = [r for r in runs if r.kind == "local"]
        assert len(best_effort) == result.total_runs_completed == 6
        assert [r.name for r in local] == ["local"]
        assert all(r.nbproc == 1 for r in best_effort)

    def test_runs_table_lists_executions(self):
        result = ClusterSimulator(4, policy="backfill").run(blocked_head_jobs())
        table = runs_table(result, limit=2)
        assert "running" in table
        assert "head" not in table  # limited to the first two starts


class TestRemovedAliases:
    @pytest.mark.parametrize("module, name", [
        ("repro.simulation", "SimulationResult"),
        ("repro.simulation", "GridSimulationResult"),
        ("repro.simulation", "DecentralizedResult"),
        ("repro.simulation.cluster_sim", "QueuePolicy"),
        ("repro.simulation.cluster_sim", "QUEUE_POLICIES"),
    ])
    def test_legacy_name_is_not_importable(self, module, name):
        import importlib

        with pytest.raises(AttributeError):
            getattr(importlib.import_module(module), name)

    def test_record_answers_only_the_current_names(self):
        result = CentralizedGridSimulator(duo_grid()).run({"alpha": blocked_head_jobs()})
        assert result.schedules["alpha"]["small"].start == pytest.approx(11.0)  # FCFS
        assert set(result.cluster_criteria) == {"alpha", "beta"}
        for name in ("local_schedules", "local_criteria"):
            assert not hasattr(result, name)
