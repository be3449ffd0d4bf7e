"""Scheduler telemetry: the versioned stats payload and the event stream.

``SchedulerStats.to_payload()`` is the one snapshot shape consumed by the
CLI stderr line, the dashboard endpoint and these tests; the scheduler's
bus events are observation-only and must narrate a campaign without
perturbing it.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.distributed import DistributedExecutor
from repro.distributed.scheduler import SchedulerStats
from repro.experiments.harness import run_experiment
from repro.telemetry import (
    TOPIC_ASSIGNMENTS,
    TOPIC_QUEUE,
    TOPIC_SCHEDULER,
    TOPIC_STATS,
    TOPIC_SWEEP,
    TOPIC_WORKERS,
    SCHEMA_VERSION,
    TelemetryBus,
)


def seeded_value(seed: int, k: int) -> dict:
    rng = np.random.default_rng(seed * 1009 + k)
    return {"value": float(rng.normal())}


def waiting_seeded_value(seed: int, k: int) -> dict:
    # Wait-bound, so the campaign outlasts the fleet's start-up: with
    # microsecond cells the first worker's lease (the whole queue) can
    # drain before the second worker says hello.
    time.sleep(0.05)
    return seeded_value(seed, k)


class TestStatsPayload:
    def test_payload_is_versioned_with_counters_and_rates(self):
        stats = SchedulerStats(results=10, steals=2, duplicates=2, retries=5)
        body = stats.to_payload()
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["kind"] == "scheduler-stats"
        assert body["counters"]["results"] == 10
        assert body["rates"]["steal_fraction"] == pytest.approx(0.2)
        assert body["rates"]["duplicate_fraction"] == pytest.approx(2 / 12)
        assert body["rates"]["retry_fraction"] == pytest.approx(0.5)
        assert "results_per_second" not in body["rates"]

    def test_counters_and_rates_are_the_one_attempt_set(self):
        body = SchedulerStats().to_payload(elapsed_seconds=1.0)
        assert list(body["counters"]) == [
            "workers_joined", "evictions", "retries", "results", "duplicates",
            "journal_hits", "worker_lost_failures", "steals",
        ]
        assert sorted(body["rates"]) == [
            "duplicate_fraction", "results_per_second", "retry_fraction",
            "steal_fraction",
        ]

    def test_elapsed_seconds_adds_throughput(self):
        body = SchedulerStats(results=8).to_payload(elapsed_seconds=2.0)
        assert body["rates"]["results_per_second"] == pytest.approx(4.0)

    def test_zero_results_yields_zero_rates_not_division_errors(self):
        rates = SchedulerStats().to_payload()["rates"]
        assert set(rates.values()) == {0.0}


class TestCampaignEventStream:
    def test_inproc_campaign_narrates_itself_onto_the_bus(self):
        bus = TelemetryBus()
        executor = DistributedExecutor("inproc://", workers=2, telemetry=bus)
        result = run_experiment(
            "tel", waiting_seeded_value, {"k": [1, 2, 3]},
            repetitions=2, executor=executor,
        )
        assert len(result.rows) == 6

        scheduler_kinds = [e.payload["kind"] for e in bus.events(TOPIC_SCHEDULER)]
        assert scheduler_kinds[0] == "campaign-start"
        assert scheduler_kinds[-1] == "campaign-end"

        joins = [e for e in bus.events(TOPIC_WORKERS)
                 if e.payload["kind"] == "worker-joined"]
        assert len(joins) == 2

        results = [e for e in bus.events(TOPIC_ASSIGNMENTS)
                   if e.payload["kind"] == "result"]
        assert len(results) == 6
        assert all(e.payload["failed"] is False for e in results)
        assigns = [e for e in bus.events(TOPIC_ASSIGNMENTS)
                   if e.payload["kind"] == "assign"]
        assert len(assigns) >= 6

        samples = bus.events(TOPIC_QUEUE)
        assert samples and all(e.payload["kind"] == "queue-sample" for e in samples)

        (stats_event,) = bus.events(TOPIC_STATS)
        body = stats_event.payload
        assert body["kind"] == "scheduler-stats"
        assert body["schema_version"] == SCHEMA_VERSION
        assert body["counters"]["results"] == 6
        assert body["rates"]["results_per_second"] > 0

    def test_telemetry_false_keeps_scheduler_topics_silent(self):
        from repro.telemetry import set_bus

        fresh = TelemetryBus()
        previous = set_bus(fresh)
        try:
            executor = DistributedExecutor("inproc://", workers=1, telemetry=False)
            run_experiment("quiet", seeded_value, {"k": [1]},
                           repetitions=1, executor=executor)
        finally:
            set_bus(previous)
        # The harness still narrates the sweep on the default bus; only the
        # scheduler's own topics were switched off.
        assert fresh.events(TOPIC_SWEEP)
        assert fresh.events(TOPIC_SCHEDULER) == []
        assert fresh.events(TOPIC_ASSIGNMENTS) == []
        assert fresh.events(TOPIC_STATS) == []
        assert executor.stats.results == 1
