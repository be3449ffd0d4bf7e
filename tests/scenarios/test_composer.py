"""Composer behaviour: hand-wired equivalence, overrides, metrics, churn."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.core.criteria import CriteriaReport
from repro.core.policies.base import ReleaseDateScheduler
from repro.core.policies.registry import (
    OFFLINE_SCHEDULERS,
    RELEASE_AWARE_OFFLINE_KINDS,
    make_offline_scheduler,
)
from repro.core.policies.rigid_moldable_mix import MixedScheduler
from repro.scenarios.registry import all_specs
from repro.experiments.harness import CellExecutionError, run_experiment
from repro.metrics.ratios import schedule_ratios
from repro.scenarios import composer, get, run_scenario, rows_digest
from repro.scenarios.composer import inject_node_churn
from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError
from repro.workload.models import WorkloadConfig, generate_mixed_jobs

MACHINES = 16

MIX_SPEC = ScenarioSpec(
    name="test.mix-equivalence",
    model="offline",
    platform=ComponentSpec("count", {"machine_count": MACHINES}),
    workload=ComponentSpec("mixed", {"n_jobs": 12, "weight_scheme": "work"}),
    policy=ComponentSpec("mixed"),
    metrics=("makespan_ratio", "weighted_completion_ratio", "policy_name"),
    repetitions=2,
    seed=321,
    sweep={"policy.strategy": ["separate", "first_fit_batch"]},
)


def hand_wired_mix_cell(seed, **axis):
    """The exact computation the composer performs, written by hand."""

    rng = np.random.default_rng(seed)
    jobs = generate_mixed_jobs(
        12, MACHINES,
        rigid_fraction=0.3,
        config=WorkloadConfig(weight_scheme="work"),
        random_state=rng,
    )
    scheduler = MixedScheduler(axis["policy.strategy"])
    schedule = scheduler.schedule(jobs, MACHINES)
    schedule.validate(check_release_dates=False)
    metrics = dict(CriteriaReport.from_schedule(schedule).as_dict())
    metrics.update(schedule_ratios(schedule, jobs, machine_count=MACHINES).as_dict())
    return {
        "makespan_ratio": metrics["makespan_ratio"],
        "weighted_completion_ratio": metrics["weighted_completion_ratio"],
        "policy_name": scheduler.name,
    }


class TestHandWiredEquivalence:
    def test_spec_sweep_is_bit_identical_to_hand_wired_run_experiment(self):
        via_spec = run_scenario(MIX_SPEC)
        hand_wired = run_experiment(
            MIX_SPEC.name,
            hand_wired_mix_cell,
            MIX_SPEC.sweep,
            repetitions=MIX_SPEC.repetitions,
            base_seed=MIX_SPEC.seed,
        )
        assert via_spec.rows == hand_wired.rows  # bit-identical, float for float
        assert rows_digest(via_spec.rows) == rows_digest(hand_wired.rows)


class TestRunScenario:
    def test_sweep_produces_one_row_per_cell(self):
        result = run_scenario(MIX_SPEC)
        assert len(result.rows) == 2 * 2  # 2 strategies x 2 repetitions
        assert {row["policy.strategy"] for row in result.rows} == {
            "separate", "first_fit_batch",
        }

    def test_metrics_filter_keeps_exactly_the_requested_columns(self):
        result = run_scenario(MIX_SPEC)
        expected = {"experiment", "seed", "policy.strategy",
                    "makespan_ratio", "weighted_completion_ratio", "policy_name"}
        assert set(result.rows[0]) == expected

    def test_unknown_metric_fails_the_cell(self):
        bad = MIX_SPEC.evolve(name="test.bad-metric", metrics=("not_a_metric",))
        with pytest.raises(CellExecutionError, match="not_a_metric"):
            run_scenario(bad)

    def test_overrides_change_the_effective_spec(self):
        result = run_scenario(
            MIX_SPEC,
            overrides={"workload.n_jobs": 6},
            sweep={"policy.strategy": ["separate"]},
            repetitions=1,
        )
        assert len(result.rows) == 1

    def test_repeated_runs_are_deterministic(self):
        assert rows_digest(run_scenario(MIX_SPEC).rows) == rows_digest(
            run_scenario(MIX_SPEC).rows
        )

    def test_unknown_workload_kind_surfaces_clearly(self):
        bad = MIX_SPEC.evolve(name="test.bad-kind").with_overrides(
            {"workload.kind": "tea-leaves"}
        )
        with pytest.raises(CellExecutionError, match="tea-leaves"):
            run_scenario(bad)


class TestNodeChurn:
    def test_outage_jobs_are_appended_deterministically(self):
        from repro.workload.arrivals import poisson_arrivals
        from repro.workload.models import generate_rigid_jobs

        jobs = poisson_arrivals(
            generate_rigid_jobs(10, 8, random_state=0), rate=1.0, random_state=0
        )
        churn = {"n_outages": 4, "procs": 3, "mean_repair": 2.0}
        a = inject_node_churn(jobs, 8, churn, np.random.default_rng(5))
        b = inject_node_churn(jobs, 8, churn, np.random.default_rng(5))
        outages = [j for j in a if j.owner == "churn"]
        assert len(a) == len(jobs) + 4 and len(outages) == 4
        assert [(j.release_date, j.duration) for j in a] == [
            (j.release_date, j.duration) for j in b
        ]
        assert all(j.nbproc == 3 for j in outages)

    def test_zero_outages_is_a_no_op(self):
        jobs = []
        assert inject_node_churn(jobs, 8, {"n_outages": 0}, np.random.default_rng(1)) == []


class TestFixedPolicyKinds:
    """Every model rejects a policy name it cannot run, before any cell."""

    QUEUE = ["backfill", "fifo", "smallest-first"]
    #: (scenario, model, the policy.kind values it accepts, a foreign kind)
    CASES = [
        ("fig2.bicriteria", "figure2", ["bicriteria", "default"], "fifo"),
        ("dlt.multiround-scaling", "dlt", ["multiround", "default"], "fifo"),
        ("fig3.ciment.centralized", "grid-centralized", ["best-effort", "default"], "fifo"),
        ("grid.decentralized.exchange", "grid-decentralized", ["exchange", "default"], "fifo"),
        ("cluster.offline-panel", "offline", [
            "batch-mrt", "bicriteria", "conservative-bf", "easy-bf", "lpt",
            "mixed", "mrt", "smart-shelves", "wspt", "default",
        ], "fifo"),
        ("cluster.policy-panel", "cluster-online", [*QUEUE, "switch", "default"], "lpt"),
    ]
    #: (scenario, queue-policy parameter, a value naming a foreign policy)
    QUEUE_CASES = [
        ("cluster.policy-switch", "policy.initial", "nosuch"),
        ("cluster.policy-switch", "policy.switches", [[8.0, "backfill"], [9.0, "lpt"]]),
        ("fig3.ciment.centralized", "policy.local_policy", "mrt"),
        ("grid.decentralized.exchange", "policy.local_policy", "nosuch"),
        ("grid.hetero-policies", "policy.local_policy", {"xeon-cluster": "bicriteria"}),
    ]

    @pytest.fixture
    def no_cell_runs(self, monkeypatch):
        def forbidden(spec, seed):
            raise AssertionError("a cell ran before the policy names were checked")

        for model in list(composer.MODEL_RUNNERS):
            monkeypatch.setitem(composer.MODEL_RUNNERS, model, forbidden)

    @pytest.mark.parametrize("name, model, accepted, foreign", CASES)
    def test_foreign_kind_is_rejected_before_any_cell(self, name, model, accepted, foreign, no_cell_runs):
        spec = get(name)
        bad = spec.evolve(policy=ComponentSpec(foreign, dict(spec.policy.params)))
        with pytest.raises(SpecError, match=re.escape(f"not one of {accepted}")):
            run_scenario(bad, smoke=True)
        if model in composer.RECORD_MODELS:  # the Gantt explorer's path
            # No sweep, so no first axis value replaces the foreign kind.
            with pytest.raises(SpecError, match="not one of"):
                composer.build_simulation_record(bad.evolve(sweep={}, smoke={}))

    @pytest.mark.parametrize("name, model, accepted, foreign", CASES)
    def test_foreign_kind_axis_is_rejected_before_any_cell(self, name, model, accepted, foreign, no_cell_runs):
        with pytest.raises(SpecError, match="'nosuch'"):
            run_scenario(get(name), smoke=True, sweep={"policy.kind": [accepted[0], "nosuch"]})

    @pytest.mark.parametrize("name, model, accepted, foreign", CASES)
    def test_accepted_kinds_and_default_are_accepted(self, name, model, accepted, foreign):
        spec = get(name)
        assert spec.model == model
        composer.check_policy_kinds(spec.evolve(sweep={"policy.kind": accepted}))
        composer.check_policy_kinds(spec.evolve(policy=ComponentSpec("default")))

    @pytest.mark.parametrize("name, param, value", QUEUE_CASES)
    def test_foreign_queue_policy_is_rejected_before_any_cell(self, name, param, value, no_cell_runs):
        spec = get(name)
        match = re.escape(f"not one of {self.QUEUE}")
        with pytest.raises(SpecError, match=match):
            run_scenario(spec, smoke=True, overrides={param: value})
        with pytest.raises(SpecError, match=match):
            run_scenario(spec, smoke=True, sweep={param: [value]})

    def test_queue_policy_params_accept_every_queue_policy(self):
        spec = get("cluster.policy-switch")
        composer.check_policy_kinds(spec.evolve(sweep={
            "policy.initial": self.QUEUE,
            "policy.switches": [[[1.0, name]] for name in self.QUEUE],
            "policy.local_policy": [*self.QUEUE, {"any-cluster": "fifo"}],
        }))

    def test_malformed_switches_are_a_spec_error(self, no_cell_runs):
        with pytest.raises(SpecError, match=r"\[time, policy\] pairs"):
            run_scenario(get("cluster.policy-switch"), smoke=True,
                         sweep={"policy.switches": [["backfill"]]})


#: An ``offline`` scenario over a Poisson stream: jobs arrive over time.
STREAM_SPEC = ScenarioSpec(
    name="test.released-stream",
    model="offline",
    platform=ComponentSpec("count", {"machine_count": MACHINES}),
    workload=ComponentSpec("mixed", {"n_jobs": 24}),
    arrival=ComponentSpec("poisson", {"rate": 2.0}),
    policy=ComponentSpec("bicriteria"),
    repetitions=2,
    seed=11,
)
RELEASE_BLIND = sorted(set(OFFLINE_SCHEDULERS) - set(RELEASE_AWARE_OFFLINE_KINDS))
#: One SWF job (18 fields), submitted at t=30: a trace carries release dates.
SWF_LINE = "1 30 0 10 4 -1 -1 4 10 -1 1 1 1 -1 1 -1 -1 -1\n"


class TestReleaseDates:
    """An ``offline`` scenario over a released stream runs only the kinds
    that honour release dates, and its schedules are checked for it."""

    @pytest.mark.parametrize("kind", sorted(OFFLINE_SCHEDULERS))
    def test_kind_honours_a_released_stream_iff_listed(self, kind):
        jobs = composer._cluster_jobs(STREAM_SPEC, MACHINES, np.random.default_rng(11), 11)
        assert any(job.release_date > 0 for job in jobs)
        scheduler = make_offline_scheduler(kind, {})
        listed = kind in RELEASE_AWARE_OFFLINE_KINDS
        assert isinstance(scheduler, ReleaseDateScheduler) == listed
        assert scheduler.schedule(jobs, MACHINES).is_valid() == listed

    @pytest.mark.parametrize("kind", RELEASE_BLIND)
    def test_release_blind_kind_is_rejected_before_any_cell(self, kind, monkeypatch):
        def forbidden(spec, seed):
            raise AssertionError("a cell ran before the release check")

        monkeypatch.setitem(composer.MODEL_RUNNERS, "offline", forbidden)
        accepted = [*RELEASE_AWARE_OFFLINE_KINDS, "default"]
        message = re.escape(f"honour release dates are {accepted}")
        with pytest.raises(SpecError, match=message):
            run_scenario(STREAM_SPEC.evolve(policy=ComponentSpec(kind)))
        with pytest.raises(SpecError, match=message):
            run_scenario(STREAM_SPEC, sweep={"policy.kind": ["bicriteria", kind]})
        with pytest.raises(SpecError, match=message):
            run_scenario(STREAM_SPEC.evolve(arrival=ComponentSpec("inherit"),
                                            policy=ComponentSpec(kind)),
                         sweep={"arrival.kind": ["offline", "poisson"]})

    @pytest.mark.parametrize("kind", RELEASE_BLIND)
    def test_release_blind_kind_runs_a_time_zero_batch(self, kind):
        spec = STREAM_SPEC.evolve(arrival=ComponentSpec("offline"), policy=ComponentSpec(kind))
        assert len(run_scenario(spec).rows) == 2

    def test_release_aware_kinds_run_a_released_stream(self):
        result = run_scenario(STREAM_SPEC, sweep={"policy.kind": list(RELEASE_AWARE_OFFLINE_KINDS)})
        assert len(result.rows) == 2 * len(RELEASE_AWARE_OFFLINE_KINDS)
        assert all(row["mean_stretch"] >= 1.0 - 1e-9 for row in result.rows)

    @pytest.mark.parametrize("workload", [
        ComponentSpec("community", {"n_jobs": 20}),
        ComponentSpec("swf", {"text": SWF_LINE}),
        ComponentSpec("swf-roundtrip", {"n_jobs": 20}),
    ], ids=lambda workload: workload.kind)
    @pytest.mark.parametrize("kind", RELEASE_BLIND)
    def test_workload_release_dates_reject_a_blind_kind_before_any_cell(
        self, workload, kind, monkeypatch
    ):
        def forbidden(spec, seed):
            raise AssertionError("a cell ran before the release check")

        monkeypatch.setitem(composer.MODEL_RUNNERS, "offline", forbidden)
        spec = STREAM_SPEC.evolve(workload=workload, arrival=ComponentSpec("inherit"))
        message = re.escape(f"workload {workload.kind!r} releases jobs over time")
        with pytest.raises(SpecError, match=message):
            run_scenario(spec.evolve(policy=ComponentSpec(kind)))
        with pytest.raises(SpecError, match=message):
            run_scenario(spec, sweep={"policy.kind": ["bicriteria", kind]})
        with pytest.raises(SpecError, match=message):
            run_scenario(STREAM_SPEC.evolve(arrival=ComponentSpec("inherit"),
                                            policy=ComponentSpec(kind)),
                         sweep={"workload.kind": ["mixed", workload.kind]})

    @pytest.mark.parametrize("kind", RELEASE_BLIND)
    def test_community_online_axis_is_checked_before_any_cell(self, kind, monkeypatch):
        def forbidden(spec, seed):
            raise AssertionError("a cell ran before the release check")

        monkeypatch.setitem(composer.MODEL_RUNNERS, "offline", forbidden)
        spec = STREAM_SPEC.evolve(
            workload=ComponentSpec("community", {"n_jobs": 20, "online": False}),
            arrival=ComponentSpec("inherit"), policy=ComponentSpec(kind),
        )
        with pytest.raises(SpecError, match="workload 'community' releases jobs"):
            run_scenario(spec, sweep={"workload.online": [False, True]})

    @pytest.mark.parametrize("kind", RELEASE_BLIND)
    def test_release_blind_kind_runs_an_offline_community_batch(self, kind):
        spec = STREAM_SPEC.evolve(
            workload=ComponentSpec("community", {"n_jobs": 20, "online": False}),
            arrival=ComponentSpec("inherit"), policy=ComponentSpec(kind),
        )
        assert len(run_scenario(spec).rows) == 2

    def test_no_builtin_offline_scenario_releases_jobs_over_time(self):
        offline = [spec for spec in all_specs() if spec.model == "offline"]
        assert offline
        for spec in offline:
            assert spec.arrival.kind in (*composer.NO_ARRIVAL_KINDS, "offline"), spec.name
