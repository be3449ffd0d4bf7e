"""Work stealing, speculation, and the 1000-worker in-process fleet.

The ``inproc://`` backend exists so scheduler behaviour at fleet scale is
testable in one process: a thousand workers are a thousand coroutines on
the scheduler's own event loop, no sockets or forks.  The contracts:

* a 1000-worker fleet drains a multi-thousand-cell campaign with stealing
  and speculation enabled, yields rows bit-identical to serial execution
  in submission order, journals them, and evicts **nobody** (heartbeat
  liveness under full load);
* a journal-resumed campaign on a fresh fleet re-executes only the
  incomplete cells;
* stealing is two-phase and therefore duplicate-free: cells move only
  after the victim confirms it never started them (white-box tests pin the
  victim selection, tail-only policy, and confirmation bookkeeping);
* speculation duplicates a straggler onto an idle worker, the first result
  wins, and the duplicate is what rescues the campaign's tail latency.
"""

from __future__ import annotations

import asyncio
import os
import time

import pytest

from repro.distributed import DistributedExecutor, Scheduler, protocol
from repro.distributed.scheduler import _Campaign, _WorkerConn
from repro.experiments.grid import CellFunction, expand_grid


def fleet_metrics(seed, i):
    # Cheap, deterministic, seed-sensitive: enough to catch any ordering
    # or attribution mistake in the scheduler.
    return {"value": (seed * 31 + i * 7) % 9973, "i": i}


def straggler_metrics(seed, i, marker=""):
    # The first execution of cell i==5 is a straggler; any re-execution of
    # it (the speculative attempt) is fast.  Metrics are identical either
    # way -- which attempt wins must not matter.
    if i == 5 and marker:
        try:
            flag = open(marker, "x")
        except FileExistsError:
            pass
        else:
            flag.close()
            time.sleep(2.5)
    return {"i": i, "value": seed % 1009}


class TestThousandWorkerFleet:
    def test_1000_workers_drain_3000_cells_bit_identically(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        cells = expand_grid({"i": list(range(750))}, repetitions=4, base_seed=4242)
        fn = CellFunction(fleet_metrics)
        serial = [fn(cell) for cell in cells]

        with Scheduler(
            "inproc://",
            prefetch=2,
            steal=True,
            speculate=True,
            journal=str(journal),
            stall_timeout=60.0,
        ) as scheduler:
            for _ in range(1000):
                scheduler.spawn_local_worker(inline=True)
            # Start the campaign only once the whole fleet has joined: on a
            # loaded host the cells could otherwise drain before the last
            # workers connect.
            deadline = time.monotonic() + 60.0
            while scheduler.stats.workers_joined < 1000 and time.monotonic() < deadline:
                time.sleep(0.01)
            outcomes = list(scheduler.run_campaign(fn, cells, version="fleet-v1"))
            stats = scheduler.stats

        assert len(outcomes) == len(cells)
        # Ordered streaming + per-cell seeds = bit-identical to serial.
        assert [o.cell for o in outcomes] == list(cells)
        assert [o.metrics for o in outcomes] == [o.metrics for o in serial]
        assert all(o.error is None for o in outcomes)
        # The whole fleet joined and did the work...
        assert stats.workers_joined == 1000
        assert stats.results == len(cells)
        # ...and the heartbeat monitor evicted no healthy worker even with
        # a thousand connections hammering the loop (no eviction storm).
        assert stats.evictions == 0
        assert stats.worker_lost_failures == 0

    def test_journal_resume_re_executes_only_incomplete_cells(self, tmp_path):
        journal = tmp_path / "fleet.jsonl"
        cells = expand_grid({"i": list(range(150))}, repetitions=4, base_seed=99)
        fn = CellFunction(fleet_metrics)

        # First campaign "dies" after 450 of 600 cells.
        with Scheduler("inproc://", journal=str(journal), stall_timeout=60.0) as first:
            for _ in range(50):
                first.spawn_local_worker(inline=True)
            done = list(first.run_campaign(fn, cells[:450], version="fleet-v2"))
            assert len(done) == 450

        # The resumed campaign replays 450 from the journal, executes 150.
        with Scheduler("inproc://", journal=str(journal), stall_timeout=60.0) as second:
            for _ in range(50):
                second.spawn_local_worker(inline=True)
            outcomes = list(second.run_campaign(fn, cells, version="fleet-v2"))
            stats = second.stats

        assert [o.metrics for o in outcomes] == [fn(c).metrics for c in cells]
        assert stats.journal_hits == 450
        assert stats.results == 150
        assert stats.evictions == 0


def test_default_worker_ids_stay_unique_across_a_fleet():
    from repro.distributed.worker import default_worker_id

    ids = [default_worker_id() for _ in range(20_000)]
    assert len(set(ids)) == len(ids)


class TestWorkStealingTwoPhase:
    """White-box: victim selection, tail-only policy, confirmation."""

    @staticmethod
    def scheduler_with_campaign(cells, **kwargs):
        defaults = dict(prefetch=4, steal=True, speculate=False)
        defaults.update(kwargs)
        scheduler = Scheduler("inproc://steal-test", **defaults)
        campaign = _Campaign(
            campaign_id="c1", cells=cells, fn_payload="", version="v"
        )
        scheduler._campaign = campaign
        return scheduler, campaign

    def test_steal_asks_for_the_lease_tail_never_the_head(self):
        cells = expand_grid({"i": [0, 1, 2, 3]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(4):
            scheduler._assign(campaign, victim, position, speculative=False)

        target, message = scheduler._request_steal(campaign, thief)
        assert target is victim
        assert message["op"] == "revoke"
        # Half the stealable tail ([1, 2, 3]), taken from the end; the
        # (probably executing) head 0 is untouchable.
        assert message["indices"] == [2, 3]
        assert victim.assignments[2].revoking and victim.assignments[3].revoking
        # The cells are still the victim's until it confirms.
        assert list(victim.lease) == [0, 1, 2, 3]
        assert scheduler.stats.steals == 0

    def test_confirmed_cells_are_requeued_and_counted(self):
        cells = expand_grid({"i": [0, 1, 2, 3]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(4):
            scheduler._assign(campaign, victim, position, speculative=False)
        _, message = scheduler._request_steal(campaign, thief)

        scheduler._handle_revoked(
            victim,
            {"op": "revoked", "campaign": "c1", "indices": message["indices"], "kept": []},
        )
        assert list(campaign.pending) == [2, 3]  # oldest first, at the front
        assert list(victim.lease) == [0, 1]
        assert 2 not in campaign.running and 3 not in campaign.running
        assert scheduler.stats.steals == 2

    def test_cells_the_victim_already_started_stay_its_own(self):
        cells = expand_grid({"i": [0, 1, 2, 3]}, repetitions=1, base_seed=7)
        scheduler, campaign = self.scheduler_with_campaign(cells)
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(4):
            scheduler._assign(campaign, victim, position, speculative=False)
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
            scheduler._assign(campaign, victim, position, speculative=False)
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
        scheduler._assign(campaign, busy_a, 0, speculative=False)
        scheduler._assign(campaign, busy_b, 1, speculative=False)
        thief = _WorkerConn(worker_id="t", comm=None, last_seen=0.0)
        assert scheduler._request_steal(campaign, thief) is None


def slow_first_metrics(seed, i):
    if i == 0:
        time.sleep(0.5)  # the worker holding cell 0 keeps a stealable tail
    return {"i": i, "value": seed % 1009}


class _CaptureComm:
    def __init__(self):
        self.sent = []

    async def send(self, message):
        self.sent.append(message)


class TestGuidedLeases:
    """A task reply carries ceil(pending / workers) cells, capped by prefetch."""

    @staticmethod
    def lease_of(pending, workers, prefetch):
        cells = expand_grid({"i": list(range(pending))}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, prefetch=prefetch, telemetry=False
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
        return [reply["index"]] + [entry["index"] for entry in reply.get("extra", [])]

    def test_a_reply_carries_an_equal_share_of_the_queue(self):
        assert self.lease_of(10, 4, None) == [0, 1, 2]

    def test_prefetch_caps_the_share(self):
        assert self.lease_of(10, 4, 2) == [0, 1]

    def test_a_lone_uncapped_worker_takes_every_pending_cell(self):
        assert self.lease_of(10, 1, None) == list(range(10))

    def test_an_uncapped_steal_takes_half_the_stealable_tail(self):
        cells = expand_grid({"i": list(range(8))}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, prefetch=None
        )
        victim = _WorkerConn(worker_id="victim", comm=None, last_seen=0.0)
        thief = _WorkerConn(worker_id="thief", comm=None, last_seen=0.0)
        for position in range(8):
            scheduler._assign(campaign, victim, position, speculative=False)
        _, message = scheduler._request_steal(campaign, thief)
        # Stealable tail [1..7]: its larger half, from the end.
        assert message["indices"] == [4, 5, 6, 7]

    def test_stealing_rebalances_a_slow_lease_end_to_end(self):
        cells = expand_grid({"i": list(range(8))}, repetitions=1, base_seed=11)
        fn = CellFunction(slow_first_metrics)
        executor = DistributedExecutor("inproc://", workers=2, stall_timeout=30.0)
        assert executor.prefetch is None
        outcomes = list(executor.map(fn, cells))
        assert [o.metrics for o in outcomes] == [fn(cell).metrics for cell in cells]
        assert executor.last_stats.steals >= 1


class TestSpeculation:
    def test_straggler_selection_respects_delay_and_attempt_cap(self):
        cells = expand_grid({"i": [0, 1]}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, speculate=True, speculation_delay=0.5, prefetch=1
        )
        busy = _WorkerConn(worker_id="busy", comm=None, last_seen=0.0)
        idle = _WorkerConn(worker_id="idle", comm=None, last_seen=0.0)
        scheduler._assign(campaign, busy, 0, speculative=False)

        # Too young to be a straggler.
        assert scheduler._speculative_candidate(campaign, idle) is None
        campaign.running[0][0].assigned_at -= 1.0
        assert scheduler._speculative_candidate(campaign, idle) == 0
        # Never a second attempt on the worker already running it.
        assert scheduler._speculative_candidate(campaign, busy) is None
        # max_speculative=1 caps the cell at two live attempts total.
        scheduler._assign(campaign, idle, 0, speculative=True)
        third = _WorkerConn(worker_id="third", comm=None, last_seen=0.0)
        assert scheduler._speculative_candidate(campaign, third) is None

    def test_speculative_duplicate_rescues_a_straggler_end_to_end(self, tmp_path):
        marker = tmp_path / "straggler-started"
        import functools

        fn = functools.partial(straggler_metrics, marker=str(marker))
        cells = expand_grid({"i": list(range(8))}, repetitions=1, base_seed=11)
        executor = DistributedExecutor(
            "inproc://",
            workers=2,
            speculation_delay=0.3,
            stall_timeout=30.0,
        )
        started = time.monotonic()
        stream = executor.map(CellFunction(fn), cells)
        outcomes = [next(stream) for _ in range(len(cells))]
        streamed_in = time.monotonic() - started
        list(stream)  # run the generator's teardown

        assert [o.metrics["i"] for o in outcomes] == list(range(8))
        assert all(o.error is None for o in outcomes)
        # The straggler's first attempt sleeps 2.5s; the full ordered stream
        # arriving well before that proves the speculative duplicate won.
        assert streamed_in < 2.0, f"speculation did not rescue the straggler ({streamed_in:.1f}s)"
        assert executor.last_stats.speculations >= 1
        assert os.path.exists(marker)


def always_slow_first_metrics(seed, i):
    if i == 0:
        time.sleep(1.2)  # every attempt of cell 0 is slow
    return {"i": i, "value": seed % 1009}


class TestSpeculationClock:
    """Only a lease head -- a started cell -- can be a straggler."""

    @staticmethod
    def busy_and_idle(count):
        cells = expand_grid({"i": list(range(count))}, repetitions=1, base_seed=7)
        scheduler, campaign = TestWorkStealingTwoPhase.scheduler_with_campaign(
            cells, speculate=True, speculation_delay=0.5, prefetch=None,
            telemetry=False,
        )
        busy = _WorkerConn(worker_id="busy", comm=_CaptureComm(), last_seen=0.0)
        idle = _WorkerConn(worker_id="idle", comm=_CaptureComm(), last_seen=0.0)
        for position in range(count):
            scheduler._assign(campaign, busy, position, speculative=False)
        for attempt in busy.assignments.values():
            attempt.assigned_at -= 1.0  # the whole lease was handed out long ago
        return cells, scheduler, campaign, busy, idle

    def test_cells_queued_behind_the_head_are_never_duplicated(self):
        _, scheduler, campaign, busy, idle = self.busy_and_idle(3)
        assert scheduler._speculative_candidate(campaign, idle) == 0
        scheduler._assign(campaign, idle, 0, speculative=True)
        third = _WorkerConn(worker_id="third", comm=None, last_seen=0.0)
        # 0 is at its attempt cap; 1 and 2 are old but not started.
        assert scheduler._speculative_candidate(campaign, third) is None

    def test_the_next_head_starts_its_clock_when_the_worker_reaches_it(self):
        cells, scheduler, campaign, busy, idle = self.busy_and_idle(3)
        outcome = CellFunction(fleet_metrics)(cells[0])
        asyncio.run(scheduler._handle_result(busy, {
            "op": "result", "campaign": "c1", "index": 0, "attempt": 1,
            "outcome": protocol.encode_payload(outcome),
        }))
        assert list(busy.lease) == [1, 2]
        assert scheduler._speculative_candidate(campaign, idle) is None  # just started
        busy.assignments[1].assigned_at -= 1.0
        assert scheduler._speculative_candidate(campaign, idle) == 1

    def test_a_cancelled_head_holds_the_lease_until_discarded(self):
        cells, scheduler, campaign, busy, idle = self.busy_and_idle(3)
        scheduler._assign(campaign, idle, 0, speculative=True)
        outcome = CellFunction(fleet_metrics)(cells[0])
        asyncio.run(scheduler._handle_result(idle, {
            "op": "result", "campaign": "c1", "index": 0, "attempt": 2,
            "outcome": protocol.encode_payload(outcome),
        }))
        (cancel,) = busy.comm.sent
        assert cancel["op"] == "cancel" and cancel["index"] == 0
        # The busy worker may still be running 0, so 1 has not started.
        assert list(busy.lease) == [0, 1, 2]
        assert scheduler._speculative_candidate(campaign, idle) is None
        # Lost now, it is charged nothing: 0 is settled, 1 and 2 never ran.
        scheduler._forget_connection(busy)
        assert list(campaign.pending) == [1, 2]
        assert campaign.loss_retries == {} and scheduler.stats.retries == 0

    def test_discarded_promotes_the_next_head(self):
        cells, scheduler, campaign, busy, idle = self.busy_and_idle(3)
        scheduler._assign(campaign, idle, 0, speculative=True)
        outcome = CellFunction(fleet_metrics)(cells[0])
        asyncio.run(scheduler._handle_result(idle, {
            "op": "result", "campaign": "c1", "index": 0, "attempt": 2,
            "outcome": protocol.encode_payload(outcome),
        }))
        with scheduler._lock:
            scheduler._drop_from_lease(busy, 0)  # what a ``discarded`` frame does
        assert list(busy.lease) == [1, 2]
        scheduler._forget_connection(busy)
        # 1 was running when the worker died: it alone is charged.
        assert list(campaign.pending) == [1, 2]
        assert campaign.loss_retries == {1: 1} and scheduler.stats.retries == 1

    def test_no_unstarted_cell_is_speculated_without_stealing(self):
        cells = expand_grid({"i": list(range(6))}, repetitions=1, base_seed=11)
        fn = CellFunction(always_slow_first_metrics)
        executor = DistributedExecutor(
            "inproc://", workers=3, steal=False, speculation_delay=0.3,
            stall_timeout=30.0,
        )
        outcomes = list(executor.map(fn, cells))
        assert [o.metrics for o in outcomes] == [fn(cell).metrics for cell in cells]
        # Cell 0 is the only started straggler; the cells leased behind it
        # are older than the delay but must not be duplicated.
        assert executor.last_stats.speculations == 1
