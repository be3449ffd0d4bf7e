"""The independent trace checker on every event-runtime simulation.

:func:`tests.runtime.trace_checker.trace_violations` replays a record's
trace from scratch; these tests run it on the smoke cell of every scenario
that has a :class:`~repro.runtime.record.SimulationRecord`, on generated
seeds and churn settings, and on broken traces it must reject.  Under
``make kernel-check`` the whole module runs again on the compiled kernel
tier.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import ParametricSweep, RigidJob
from repro.platform.generators import homogeneous_cluster
from repro.platform.grid import LightGrid
from repro.scenarios import registry
from repro.scenarios.composer import RECORD_MODELS, build_simulation_record
from repro.simulation.decentralized import DecentralizedGridSimulator
from repro.simulation.grid_sim import CentralizedGridSimulator
from tests.runtime.trace_checker import trace_violations

RECORD_SCENARIOS = [name for name in registry.names() if registry.get(name).model in RECORD_MODELS]


@pytest.mark.parametrize("name", RECORD_SCENARIOS)
def test_every_record_scenario_smoke_cell_is_a_legal_run(name):
    record = build_simulation_record(registry.get(name))
    assert len(record.trace) > 0
    assert trace_violations(record) == []


def test_every_record_model_is_covered():
    assert {registry.get(name).model for name in RECORD_SCENARIOS} == set(RECORD_MODELS)


def _unswept_smoke(name):
    # The smoke sizes without the sweep: build_simulation_record folds the
    # first value of every sweep axis in after the overrides.
    return registry.get(name).smoke_spec().evolve(sweep={})


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_outages=st.integers(0, 12),
    procs=st.integers(1, 8),
    mean_repair=st.floats(0.05, 5.0),
)
def test_best_effort_grid_runs_under_churn_are_legal(seed, n_outages, procs, mean_repair):
    churn = {"n_outages": n_outages, "procs": procs, "mean_repair": mean_repair}
    record = build_simulation_record(
        _unswept_smoke("grid.node-churn"), seed, smoke=False,
        overrides={"workload.churn": churn},
    )
    assert trace_violations(record) == []


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), threshold=st.floats(0.0, 4.0))
def test_exchange_grid_runs_are_legal(seed, threshold):
    record = build_simulation_record(
        _unswept_smoke("grid.hetero-mix"), seed, smoke=False,
        overrides={"policy.imbalance_threshold": threshold},
    )
    assert trace_violations(record) == []


# ---------------------------------------------------------------------------
# The checker rejects broken runs
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def preempted():
    """Two processors, long runs, and a local job that kills both at t=1."""

    grid = LightGrid("g", [homogeneous_cluster("solo", 2)])
    local = {"solo": [RigidJob(name="urgent", nbproc=2, duration=1.0, release_date=1.0)]}
    bags = [ParametricSweep(name="bag", n_runs=4, run_time=3.0)]
    record = CentralizedGridSimulator(grid).run(local, bags)
    assert record.kills == 2
    assert trace_violations(record) == []
    return record


def _index(records, kind, job=None):
    return next(
        i for i, r in enumerate(records)
        if r["kind"] == kind and (job is None or r["job"] == job)
    )


def _violations_of(record, edit):
    records = record.trace.to_records()
    edit(records)
    return "\n".join(trace_violations(record, records))


class TestCheckerRejects:
    def test_a_processor_held_twice(self, preempted):
        def edit(records):
            urgent = records[_index(records, "start", "urgent")]
            records.insert(0, dict(urgent, job="intruder", time=0.0))
            records.append(dict(urgent, kind="complete", job="intruder"))

        assert "already held by" in _violations_of(preempted, edit)

    def test_a_processor_off_the_cluster(self, preempted):
        def edit(records):
            records[_index(records, "start")]["processors"] = [7]

        assert "processor 7 is not on the cluster" in _violations_of(preempted, edit)

    def test_a_run_left_open(self, preempted):
        def edit(records):
            del records[_index(records, "complete", "urgent")]

        assert "still running at the end" in _violations_of(preempted, edit)

    def test_a_close_without_a_start(self, preempted):
        def edit(records):
            records.append(dict(records[_index(records, "complete", "urgent")], job="ghost"))

        assert "no matching start" in _violations_of(preempted, edit)

    def test_a_killed_local_job(self, preempted):
        def edit(records):
            kill = _index(records, "kill")
            job = records[kill]["job"]
            records[_index(records, "start", job)]["info"] = "local"

        assert "a local job was killed" in _violations_of(preempted, edit)

    def test_a_kill_without_its_resubmit(self, preempted):
        def edit(records):
            del records[_index(records, "resubmit")]

        assert "kill not followed by its resubmit" in _violations_of(preempted, edit)

    def test_a_start_before_the_submit(self, preempted):
        def edit(records):
            submit = records.pop(_index(records, "submit", "urgent"))
            records.insert(_index(records, "start", "urgent") + 1, submit)

        assert "start of a job not queued" in _violations_of(preempted, edit)

    def test_a_migrate_of_a_started_job(self, preempted):
        def edit(records):
            start = _index(records, "start", "urgent")
            records.insert(start + 1, dict(records[start], kind="migrate", processors=[]))

        assert "migrate of a job not queued" in _violations_of(preempted, edit)

    def test_time_running_backwards(self, preempted):
        def edit(records):
            records[-1]["time"] = 0.5

        assert "time runs backwards" in _violations_of(preempted, edit)

    @pytest.mark.parametrize("field, value, message", [
        ("launches", 99, "launches: record 99"),
        ("kills", 0, "kills: record 0"),
        ("runs_completed", {"bag": 1}, "runs_completed: record {'bag': 1}"),
    ])
    def test_a_record_count_off_the_trace(self, preempted, field, value, message):
        record = dataclasses.replace(preempted, **{field: value})
        assert message in "\n".join(trace_violations(record))

    def test_criteria_off_the_trace(self, preempted):
        report = preempted.cluster_criteria["solo"]
        wrong = dataclasses.replace(report, makespan=report.makespan + 1.0)
        record = dataclasses.replace(preempted, cluster_criteria={"solo": wrong})
        assert "criteria 'solo'.makespan" in "\n".join(trace_violations(record))

    def test_a_schedule_off_the_trace(self, preempted):
        def edit(records):
            for index in (_index(records, "start", "urgent"),
                          _index(records, "complete", "urgent")):
                records[index]["time"] += 0.5

        assert "schedule 'solo' places 'urgent'" in _violations_of(preempted, edit)

    def test_a_trace_length_off_the_record(self, preempted):
        def edit(records):
            records.append(dict(records[-1], kind="policy-switch", job="fifo"))

        assert "trace_events: record has" in _violations_of(preempted, edit)


def test_migrations_are_replayed_against_the_record():
    grid = LightGrid("g", [homogeneous_cluster("busy", 2), homogeneous_cluster("idle", 8)])
    local = {"busy": [RigidJob(name=f"j{i}", nbproc=2, duration=4.0) for i in range(6)]}
    record = DecentralizedGridSimulator(grid, imbalance_threshold=0.5).run(local)
    assert record.migrations > 0
    assert trace_violations(record) == []
    wrong = dataclasses.replace(record, migrated_jobs=record.migrated_jobs[1:])
    assert any(v.startswith("migrations:") for v in trace_violations(wrong))
