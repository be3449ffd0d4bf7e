"""The two policy tables: queue policies on the runtime, off-line schedulers."""

import pytest

from repro.core.policies import (
    OFFLINE_SCHEDULERS,
    MoldableAllocator,
    SchedulingPolicy,
    make_offline_scheduler,
    make_policy,
    policy_names,
)
from repro.scenarios import run_scenario
from repro.scenarios.spec import ComponentSpec, ScenarioSpec
from repro.simulation.cluster_sim import ClusterSimulator
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import WorkloadConfig, generate_moldable_jobs

#: Names that used to run on the event runtime through an on-line adapter.
FORMER_PLANNED = [
    "lpt", "spt", "wspt", "list", "shelf", "smart-shelves", "mrt",
    "greedy-moldable", "batch-online", "batch-mrt", "bicriteria",
    "conservative-bf", "easy-bf", "mixed", "reservation-aware",
]


def online_workload(n_jobs=10, machines=16, seed=9):
    jobs = generate_moldable_jobs(
        n_jobs, machines, config=WorkloadConfig(weight_scheme="work"), random_state=seed
    )
    return poisson_arrivals(jobs, rate=1.0, random_state=seed)


class TestQueuePolicies:
    def test_names(self):
        assert policy_names() == ["backfill", "fifo", "smallest-first"]

    @pytest.mark.parametrize("name", ["fifo", "backfill", "smallest-first"])
    def test_every_policy_constructs_and_drives_the_cluster_runtime(self, name):
        policy = make_policy(name)
        assert isinstance(policy, SchedulingPolicy) and policy.name == name
        jobs = online_workload()
        result = ClusterSimulator(16, policy=name).run(jobs)
        result.schedule.validate()
        assert len(result.schedule) == len(jobs)
        assert result.trace.count("complete") == len(jobs)

    @pytest.mark.parametrize("name", ["magic", *FORMER_PLANNED])
    def test_unknown_name_raises_value_error(self, name):
        with pytest.raises(ValueError, match=r"known: \['backfill', 'fifo', 'smallest-first'\]"):
            make_policy(name)
        with pytest.raises(ValueError, match="unknown scheduling policy"):
            ClusterSimulator(8, policy=name)

    def test_instances_pass_through(self):
        policy = make_policy("fifo")
        assert make_policy(policy) is policy

    def test_allocator_override_alongside_an_instance_is_rejected(self):
        policy = make_policy("fifo")
        with pytest.raises(ValueError, match="already-constructed"):
            make_policy(policy, allocator=MoldableAllocator("min_runtime"))

    def test_no_factory_parameters(self):
        with pytest.raises(TypeError):
            make_policy("fifo", strategy="x")

    def test_allocator_override(self):
        policy = make_policy("backfill", allocator=MoldableAllocator("min_runtime"))
        assert policy.allocator.strategy == "min_runtime"


def offline_spec(kind, **params):
    """A small rigid+moldable batch scored by the ``offline`` model."""

    return ScenarioSpec(
        name="test.offline-table",
        model="offline",
        platform=ComponentSpec("count", {"machine_count": 16}),
        workload=ComponentSpec("mixed", {"n_jobs": 10, "weight_scheme": "work"}),
        policy=ComponentSpec(kind, params),
        repetitions=1,
        seed=7,
    )


class TestOfflineSchedulers:
    #: kind -> the scheduler's name, as each kind has always reported it.
    NAMES = {
        "lpt": "list-lpt",
        "wspt": "list-wspt",
        "smart-shelves": "smart-shelves",
        "mrt": "mrt-dual-approx",
        "bicriteria": "bicriteria(deadline-aware)",
        "batch-mrt": "batch(mrt-dual-approx)",
        "conservative-bf": "conservative-backfilling",
        "easy-bf": "easy-backfilling",
        "mixed": "mixed-first_fit_batch",
        "default": "bicriteria(deadline-aware)",
    }

    def test_kinds(self):
        assert sorted(OFFLINE_SCHEDULERS) == sorted(set(self.NAMES) - {"default"})

    @pytest.mark.parametrize("kind", sorted(NAMES))
    def test_every_kind_runs_the_offline_model(self, kind):
        # run_scenario's offline runner validates each schedule it scores.
        result = run_scenario(offline_spec(kind))
        assert not result.errors
        assert [row["policy_name"] for row in result.rows] == [self.NAMES[kind]]

    @pytest.mark.parametrize("kind, params, name", [
        ("bicriteria", {"mrt_inner": True}, "bicriteria(mrt-dual-approx)"),
        ("default", {"mrt_inner": True}, "bicriteria(mrt-dual-approx)"),
        ("mixed", {"strategy": "a_priori"}, "mixed-a_priori"),
        ("mixed", {"strategy": "separate"}, "mixed-separate"),
    ])
    def test_params_reach_the_scheduler(self, kind, params, name):
        assert make_offline_scheduler(kind, params).name == name
        rows = run_scenario(offline_spec(kind, **params)).rows
        assert [row["policy_name"] for row in rows] == [name]

    @pytest.mark.parametrize("kind", ["nosuch", "fifo", "spt", "shelf"])
    def test_unknown_kind_raises_value_error(self, kind):
        with pytest.raises(ValueError, match=rf"unknown offline scheduler '{kind}'; known: \['batch-mrt'"):
            make_offline_scheduler(kind, {})
