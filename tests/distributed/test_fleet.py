"""Guided leases, work stealing, one attempt per cell, and the 1000-worker fleet.

The ``inproc://`` backend exists so scheduler behaviour at fleet scale is
testable in one process: a thousand workers are a thousand coroutines on
the scheduler's own event loop, no sockets or forks.  The contracts:

* a 1000-worker fleet drains a multi-thousand-cell campaign with stealing
  enabled, yields rows bit-identical to serial execution in submission
  order, executes every cell exactly once, and evicts **nobody** (heartbeat
  liveness under full load);
* a campaign resumed from the harness cell cache on a fresh fleet sends
  only the incomplete cells to the scheduler;
* stealing is two-phase and therefore duplicate-free: cells move only
  after the victim confirms it never started them (white-box tests pin the
  victim selection, tail-only policy, and confirmation bookkeeping);
* stealing is what corrects a lease after it went out: a worker that joins
  after a lone worker leased the whole queue splits that lease;
* a cell has at most one live attempt, and guided leases plus stealing is
  the only policy: the speculation, policy and journal knobs, flags and
  frames are gone, and using them fails loudly.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from collections import Counter

import pytest

from repro.distributed import DistributedExecutor, Scheduler, protocol
from repro.distributed.cli import main as distributed_main
from repro.scenarios.cli import main as scenarios_main
from repro.distributed import scheduler as scheduler_module
from repro.distributed.scheduler import IDLE_DELAY, _Campaign, _WorkerConn
from repro.distributed.worker import AsyncWorker
from repro.experiments.grid import CellFunction, expand_grid
from repro.experiments.harness import run_experiment
from tests.distributed.resume import KillAfterRows, KilledCampaign
from tests.distributed.timings import fast_timings


def fleet_metrics(seed, i):
    # Cheap, deterministic, seed-sensitive: enough to catch any ordering
    # or attribution mistake in the scheduler.
    return {"value": (seed * 31 + i * 7) % 9973, "i": i}


class TestThousandWorkerFleet:
    def test_1000_workers_drain_3000_cells_bit_identically(self, monkeypatch):
        fast_timings(monkeypatch, stall_timeout=60.0)
        cells = expand_grid({"i": list(range(750))}, repetitions=4, base_seed=4242)
        fn = CellFunction(fleet_metrics)
        serial = [fn(cell) for cell in cells]

        with Scheduler("inproc://") as scheduler:
            # Built here rather than by spawn_local_worker so the test can
            # read each worker's execution count afterwards.
            workers = [AsyncWorker(scheduler.address, inline=True) for _ in range(1000)]
            for worker in workers:
                asyncio.run_coroutine_threadsafe(worker.run(), scheduler._loop)
            # Start the campaign only once the whole fleet has joined: on a
            # loaded host the cells could otherwise drain before the last
            # workers connect.
            deadline = time.monotonic() + 60.0
            while scheduler.stats.workers_joined < 1000 and time.monotonic() < deadline:
                time.sleep(0.01)
            outcomes = list(scheduler.run_campaign(fn, cells))
            stats = scheduler.stats

        assert len(outcomes) == len(cells)
        # Ordered streaming + per-cell seeds = bit-identical to serial.
        assert [o.cell for o in outcomes] == list(cells)
        assert [o.metrics for o in outcomes] == [o.metrics for o in serial]
        assert all(o.error is None for o in outcomes)
        # The whole fleet joined and did the work...
        assert stats.workers_joined == 1000
        assert stats.results == len(cells)
        # ...exactly once per cell: one attempt, no duplicate result...
        assert stats.duplicates == 0
        assert sum(worker.cells_executed for worker in workers) == len(cells)
        # ...and the heartbeat monitor evicted no healthy worker even with
        # a thousand connections hammering the loop (no eviction storm).
        assert stats.evictions == 0
        assert stats.worker_lost_failures == 0

    def test_cache_resume_re_executes_only_incomplete_cells(self, tmp_path, monkeypatch):
        grid = {"i": list(range(150))}  # x4 reps = 600 cells
        fast_timings(monkeypatch, stall_timeout=60.0)
        fleet = lambda: DistributedExecutor("inproc://", workers=50)

        # First campaign "dies" after 450 of 600 cells: the harness stores
        # each outcome before it notifies, so the 450th is cached too.
        with pytest.raises(KilledCampaign):
            run_experiment("fleet", fleet_metrics, grid, repetitions=4, base_seed=99,
                           executor=fleet(), cache=tmp_path, listener=KillAfterRows(450))

        # The resumed campaign replays 450 from the cache, executes 150.
        executor = fleet()
        resumed = run_experiment("fleet", fleet_metrics, grid, repetitions=4,
                                 base_seed=99, executor=executor, cache=tmp_path)
        serial = run_experiment("fleet", fleet_metrics, grid, repetitions=4,
                                base_seed=99, executor="serial")
        assert resumed.rows == serial.rows
        assert resumed.cache_hits == 450
        assert executor.last_stats.results == 150
        assert executor.last_stats.evictions == 0


def test_default_worker_ids_stay_unique_across_a_fleet():
    from repro.distributed.worker import default_worker_id

    ids = [default_worker_id() for _ in range(20_000)]
    assert len(set(ids)) == len(ids)


class TestWorkStealingTwoPhase:
    """White-box: victim selection, tail-only policy, confirmation."""

    @staticmethod
    def scheduler_with_campaign(cells, **kwargs):
        scheduler = Scheduler("inproc://steal-test", **kwargs)
        campaign = _Campaign(campaign_id="c1", cells=cells, fn_payload="")
        scheduler._campaign = campaign
        return scheduler, campaign

    def test_steal_asks_for_the_lease_tail_never_the_head(self):
        cells = expand_grid({"i": [0, 1, 2, 3]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(4):
            scheduler._assign(campaign, victim, position)

        target, message = scheduler._request_steal(campaign, thief)
        assert target is victim
        assert message["op"] == "revoke"
        # Half the stealable tail ([1, 2, 3]), taken from the end; the
        # (probably executing) head 0 is untouchable.
        assert message["indices"] == [2, 3]
        assert victim.assignments[2].revoking and victim.assignments[3].revoking
        # The cells are still the victim's until it confirms.
        assert list(victim.assignments) == [0, 1, 2, 3]
        assert scheduler.stats.steals == 0

    def test_confirmed_cells_are_requeued_and_counted(self):
        cells = expand_grid({"i": [0, 1, 2, 3]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(4):
            scheduler._assign(campaign, victim, position)
        _, message = scheduler._request_steal(campaign, thief)

        scheduler._handle_revoked(
            victim,
            {"op": "revoked", "campaign": "c1", "indices": message["indices"], "kept": []},
        )
        assert list(campaign.pending) == [2, 3]  # oldest first, at the front
        assert list(victim.assignments) == [0, 1]
        assert 2 not in campaign.running and 3 not in campaign.running
        assert scheduler.stats.steals == 2

    def test_cells_the_victim_already_started_stay_its_own(self):
        cells = expand_grid({"i": [0, 1, 2, 3]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(4):
            scheduler._assign(campaign, victim, position)
        scheduler._request_steal(campaign, thief)

        # The victim raced ahead: by the time the revoke arrived it had
        # started 2, so it only gives 3 back.
        scheduler._handle_revoked(
            victim, {"op": "revoked", "campaign": "c1", "indices": [3], "kept": [2]}
        )
        assert list(campaign.pending) == [3]
        assert 2 in victim.assignments and not victim.assignments[2].revoking
        assert scheduler.stats.steals == 1

    def test_in_flight_revokes_are_not_stolen_twice(self):
        cells = expand_grid({"i": [0, 1, 2, 3, 4, 5]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        for position in range(6):
            scheduler._assign(campaign, victim, position)
        thief_a = _WorkerConn(worker_id="a", comm=None, last_seen=0.0)
        thief_b = _WorkerConn(worker_id="b", comm=None, last_seen=0.0)

        _, first = scheduler._request_steal(campaign, thief_a)
        _, second = scheduler._request_steal(campaign, thief_b)
        assert not set(first["indices"]) & set(second["indices"])

    def test_nothing_stealable_when_leases_hold_a_single_cell(self):
        cells = expand_grid({"i": [0, 1]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        busy_a = _WorkerConn(worker_id="a", comm=None, last_seen=0.0)
        busy_b = _WorkerConn(worker_id="b", comm=None, last_seen=0.0)
        scheduler._assign(campaign, busy_a, 0)
        scheduler._assign(campaign, busy_b, 1)
        thief = _WorkerConn(worker_id="t", comm=None, last_seen=0.0)
        assert scheduler._request_steal(campaign, thief) is None


EXECUTIONS = Counter()
_EXECUTIONS_LOCK = threading.Lock()


def slow_first_metrics(seed, i):
    with _EXECUTIONS_LOCK:
        EXECUTIONS[i] += 1
    if i == 0:
        time.sleep(0.5)  # the worker holding cell 0 keeps a stealable tail
    return {"i": i, "value": seed % 1009}


class _CaptureComm:
    def __init__(self):
        self.sent = []

    async def send(self, message):
        self.sent.append(message)


def lease_indices(task):
    return [task["index"]] + [entry["index"] for entry in task.get("extra", [])]


class TestGuidedLeases:
    """A task reply carries ceil(pending / workers) cells; steals correct it."""

    @staticmethod
    def lease_of(pending, workers):
        cells = expand_grid({"i": list(range(pending))}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, telemetry=False
        )
        campaign.pending.extend(range(pending))
        conns = [
            _WorkerConn(worker_id=f"w{k}", comm=_CaptureComm(), last_seen=0.0)
            for k in range(workers)
        ]
        scheduler._conns = {conn.worker_id: conn for conn in conns}
        asyncio.run(scheduler._handle_request(conns[0]))
        (reply,) = conns[0].comm.sent
        assert reply["op"] == "task"
        return lease_indices(reply)

    def test_a_reply_carries_an_equal_share_of_the_queue(self):
        assert self.lease_of(10, 4) == [0, 1, 2]

    def test_a_lone_worker_takes_every_pending_cell(self):
        assert self.lease_of(10, 1) == list(range(10))

    def test_a_steal_takes_the_larger_half_of_the_stealable_tail(self):
        cells = expand_grid({"i": list(range(8))}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(8):
            scheduler._assign(campaign, victim, position)
        _, message = scheduler._request_steal(campaign, thief)
        # Stealable tail [1..7]: its larger half, from the end.
        assert message["indices"] == [4, 5, 6, 7]

    def test_a_late_worker_splits_the_lease_of_a_lone_early_one(self):
        cells = expand_grid({"i": list(range(8))}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, telemetry=False
        )
        campaign.pending.extend(range(8))
        early = _WorkerConn(worker_id="early", comm=_CaptureComm(), last_seen=0.0)
        scheduler._conns = {"early": early}
        # Alone in the fleet, the early worker leases the whole queue.
        asyncio.run(scheduler._handle_request(early))
        (lease,) = early.comm.sent
        assert lease_indices(lease) == list(range(8)) and not campaign.pending

        # A second worker joins and asks: the queue is dry, so its request
        # pushes a revoke for the larger half of the early lease's tail
        # [1..7] and it is told to come back shortly.
        late = _WorkerConn(worker_id="late", comm=_CaptureComm(), last_seen=0.0)
        scheduler._conns["late"] = late
        asyncio.run(scheduler._handle_request(late))
        assert early.comm.sent[1:] == [
            {"op": "revoke", "campaign": "c1", "indices": [4, 5, 6, 7]}
        ]
        assert late.comm.sent == [{"op": "idle", "delay": IDLE_DELAY}]

        # Once the early worker confirms, the late one's next request gets
        # its guided share of the requeued cells.
        scheduler._handle_revoked(
            early, {"op": "revoked", "campaign": "c1", "indices": [4, 5, 6, 7], "kept": []}
        )
        asyncio.run(scheduler._handle_request(late))
        assert lease_indices(late.comm.sent[-1]) == [4, 5]
        assert list(early.assignments) == [0, 1, 2, 3]
        assert scheduler.stats.steals == 4

    def test_stealing_rebalances_a_slow_lease_end_to_end(self, monkeypatch):
        cells = expand_grid({"i": list(range(8))}, repetitions=1, base_seed=11)
        fn = CellFunction(slow_first_metrics)
        fast_timings(monkeypatch, stall_timeout=30.0)
        executor = DistributedExecutor("inproc://", workers=2)
        EXECUTIONS.clear()
        outcomes = list(executor.map(fn, cells))
        # Stealing moved cells, yet every cell ran exactly once.
        assert EXECUTIONS == Counter(range(8))
        assert [o.metrics for o in outcomes] == [fn(cell).metrics for cell in cells]
        assert executor.last_stats.steals >= 1
        assert executor.last_stats.duplicates == 0
        assert executor.last_stats.results == len(cells)


class TestOneAttemptPerCell:
    """A cell is on one worker at a time; only a loss or a steal moves it."""

    def test_a_cell_has_a_single_live_attempt(self):
        cells = expand_grid({"i": [0, 1, 2]}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(cells)
        worker = _WorkerConn(worker_id="w", comm=None, last_seen=0.0)
        for position in range(3):
            scheduler._assign(campaign, worker, position)
        assert campaign.running == worker.assignments
        assert list(worker.assignments) == [0, 1, 2]

    def test_a_result_promotes_the_next_head_which_alone_is_charged(self):
        cells = expand_grid({"i": [0, 1, 2]}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, telemetry=False
        )
        worker = _WorkerConn(worker_id="w", comm=None, last_seen=0.0)
        for position in range(3):
            scheduler._assign(campaign, worker, position)
        outcome = CellFunction(fleet_metrics)(cells[0])
        asyncio.run(scheduler._handle_result(worker, {
            "op": "result", "campaign": "c1", "index": 0, "attempt": 1,
            "outcome": protocol.encode_payload(outcome),
        }))
        assert list(worker.assignments) == [1, 2] and 0 not in campaign.running
        scheduler._forget_connection(worker)
        # 1 was running when the worker died: it alone is charged.
        assert list(campaign.pending) == [1, 2]
        assert campaign.loss_retries == {1: 1} and scheduler.stats.retries == 1
        assert campaign.running == {}


class TestCliResume:
    """The scenario runner resumes from ``REPRO_CACHE_DIR``, across executors."""

    def test_distributed_rerun_then_serial_run_replay_every_cell(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        entries = []
        fleet = ["--executor", "inproc://", "--workers", "2"]
        for index, executor in enumerate([fleet, fleet, []]):
            out = tmp_path / f"run{index}.json"
            assert scenarios_main(["run", "fig2.bicriteria", "--smoke", *executor,
                                   "--output", str(out)]) == 0
            (entry,) = json.loads(out.read_text())["scenarios"]
            entries.append(entry)
        first, again, serial = entries
        assert first["cache_hits"] == 0
        assert again["cache_hits"] == serial["cache_hits"] == first["rows"] > 0
        assert first["digest"] == again["digest"] == serial["digest"]
        assert serial["executor"] == "serial"


class TestRemovedKnobs:
    """Speculation, the policy switches, the journal and the duplicate
    runners are gone; using them fails loudly.

    Guided leases plus stealing is the only policy: ``steal``/``prefetch``
    and ``--no-steal``/``--prefetch`` went the way of the speculation knobs.
    The harness cell cache is the one replay store: ``journal``/``--journal``
    and ``run_campaign(version=)`` are gone.  ``repro.scenarios run`` is the
    one scenario runner: ``repro.distributed run``/``scheduler`` and their
    fault-budget and comm flags are gone too.  The runtime's timings are
    module constants: the keywords that set them are gone.
    """

    @pytest.mark.parametrize("knob", [
        {"speculate": True}, {"speculation_delay": 1.0}, {"max_speculative": 1},
        {"steal": False}, {"steal": True}, {"prefetch": 2}, {"prefetch": None},
        {"journal": "campaign.jsonl"}, {"journal": None},
        {"heartbeat_interval": 0.5}, {"heartbeat_timeout": 10.0},
        {"max_retries": 3}, {"stall_timeout": 120.0}, {"stall_timeout": None},
    ])
    def test_removed_knobs_are_type_errors(self, knob):
        with pytest.raises(TypeError):
            DistributedExecutor("inproc://", workers=1, **knob)
        with pytest.raises(TypeError):
            Scheduler("inproc://", **knob)

    @pytest.mark.parametrize("knob", [
        {"reconnect_delay": 0.2}, {"reply_timeout": 30.0}, {"once": True},
    ])
    def test_removed_worker_knobs_are_type_errors(self, knob):
        with pytest.raises(TypeError):
            AsyncWorker("inproc://", **knob)

    def test_timings_are_the_former_executor_defaults(self):
        # Production campaigns keep the timings they ran with as keywords.
        assert scheduler_module.HEARTBEAT_INTERVAL == 0.5
        assert scheduler_module.HEARTBEAT_TIMEOUT == 10.0
        assert scheduler_module.MAX_RETRIES == 3
        assert scheduler_module.STALL_TIMEOUT == 120.0
        assert protocol.MAX_FRAME_BYTES == 64 * 1024 * 1024

    @pytest.mark.parametrize("main, command, error", [
        (scenarios_main, ["run", "fig2.bicriteria", "--smoke"], "unrecognized arguments"),
        (scenarios_main, ["run", "fig2.bicriteria", "--smoke", "--executor", "inproc://"],
         "unrecognized arguments"),
        (distributed_main, ["run", "fig2.bicriteria", "--smoke"], "invalid choice"),
        (distributed_main, ["scheduler", "fig2.bicriteria", "--smoke"], "invalid choice"),
    ], ids=["scenarios-run", "scenarios-run-inproc", "distributed-run", "distributed-scheduler"])
    @pytest.mark.parametrize("flags", [
        ["--no-speculate"], ["--speculation-delay", "1"], ["--no-steal"], ["--prefetch", "2"],
        ["--journal", "x"], ["--max-retries", "1"], ["--stall-timeout", "5"],
        ["--comm", "inproc"], ["--bind", "inproc://"], ["--record-campaign", "x"],
    ])
    def test_removed_flags_are_usage_errors(self, main, command, error, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(command + flags)
        assert excinfo.value.code == 2
        assert error in capsys.readouterr().err

    def test_run_campaign_takes_no_version(self):
        cells = expand_grid({"i": [0]}, repetitions=1, base_seed=7)
        with Scheduler("inproc://", telemetry=False) as scheduler:
            with pytest.raises(TypeError):
                scheduler.run_campaign(CellFunction(fleet_metrics), cells, version="v")
            # Nothing was registered: a plain campaign still runs.
            scheduler.spawn_local_worker(inline=True)
            (outcome,) = scheduler.run_campaign(CellFunction(fleet_metrics), cells)
        assert outcome.metrics == CellFunction(fleet_metrics)(cells[0]).metrics
