"""Scheduler fault-path tests driven through raw protocol sockets.

A *silent* fake worker -- one that registers, takes a cell and then stops
heartbeating without closing its socket -- is indistinguishable from a hung
host; only the heartbeat timeout can reclaim its cell.  These tests pin the
eviction, requeue and retry-budget bookkeeping at the scheduler level,
complementing the end-to-end SIGKILL test (where the kernel closes the
socket and the scheduler notices immediately).
"""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.distributed import ConnectionClosed, DistributedExecutor, Scheduler, protocol
from repro.distributed.cli import main as distributed_main
from repro.distributed.scheduler import WORKER_LOST, CampaignStalled
from repro.experiments.grid import CellFunction, expand_grid
from tests.distributed.wire import recv_message, send_message


def plain_cell(seed, x):
    return {"y": x * 10 + seed % 10}


class FakeWorker:
    """A hand-driven protocol client (no heartbeat thread, no execution)."""

    def __init__(self, address, worker_id):
        host, port = protocol.parse_address(address)
        self.sock = socket.create_connection((host, port), timeout=5.0)
        self.worker_id = worker_id
        send_message(self.sock, {"op": "hello", "worker": worker_id})
        self.welcome = recv_message(self.sock)
        assert self.welcome["op"] == "welcome"

    def take_cell(self, timeout=10.0):
        """Request until a task arrives; returns the task message."""

        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            send_message(self.sock, {"op": "request"})
            reply = recv_message(self.sock)
            if reply["op"] == "task":
                return reply
            time.sleep(0.02)
        raise AssertionError("fake worker never received a task")

    def finish(self, task):
        cell = protocol.decode_payload(task["cell"])
        outcome = CellFunction(plain_cell)(cell)
        send_message(self.sock, {
            "op": "result",
            "worker": self.worker_id,
            "campaign": task["campaign"],
            "index": task["index"],
            "outcome": protocol.encode_payload(outcome),
        })

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


def lease_indices(task):
    """The positions a ``task`` reply leases, in dispatch order."""

    return [task["index"]] + [entry["index"] for entry in task.get("extra", [])]


def finish_lease(worker, task):
    for entry in [task] + task.get("extra", []):
        worker.finish({**entry, "campaign": task["campaign"]})


def collect_campaign(scheduler, cells, results, errors):
    try:
        results.extend(scheduler.run_campaign(CellFunction(plain_cell), cells))
    except Exception as error:  # surfaced to the test thread
        errors.append(error)


class TestHeartbeatEviction:
    def test_silent_worker_is_evicted_and_its_lease_requeued(self):
        cells = expand_grid({"x": list(range(8))}, repetitions=1)
        scheduler = Scheduler(
            heartbeat_interval=0.1, heartbeat_timeout=0.6, max_retries=3
        ).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        silent = None
        honest = None
        try:
            # Alone in the fleet, the silent worker leases the whole queue,
            # then goes quiet.
            silent = FakeWorker(scheduler.address, "silent")
            assert lease_indices(silent.take_cell()) == list(range(len(cells)))

            # An honest worker idles -- the silent worker never answers the
            # revokes its requests trigger -- until the eviction requeues
            # the lease, head first, then drains it.
            honest = FakeWorker(scheduler.address, "honest")
            retried = honest.take_cell(timeout=10.0)
            assert lease_indices(retried) == list(range(len(cells)))
            finish_lease(honest, retried)

            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert [outcome.metrics for outcome in results] == [
                CellFunction(plain_cell)(cell).metrics for cell in cells
            ]
            assert scheduler.stats.evictions == 1
            # Only the lease head -- the cell the worker was on -- is charged.
            assert scheduler.stats.retries == 1
            assert scheduler.stats.steals == 0
            # The evicted socket was closed by the scheduler (EOF or reset),
            # behind the revokes the honest worker's requests pushed to it.
            silent.sock.settimeout(2.0)
            with pytest.raises(ConnectionClosed):
                while True:
                    assert recv_message(silent.sock)["op"] == "revoke"
        finally:
            for worker in (silent, honest):
                if worker is not None:
                    worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)

    def test_retry_budget_exhaustion_yields_worker_lost_outcome(self):
        cells = expand_grid({}, repetitions=1)  # a single cell
        scheduler = Scheduler(
            heartbeat_interval=0.1, heartbeat_timeout=5.0, max_retries=1
        ).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        try:
            for attempt in range(2):  # initial assignment + one retry
                crashy = FakeWorker(scheduler.address, f"crashy-{attempt}")
                crashy.take_cell()
                crashy.close()  # die mid-cell: connection drop, no result
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            (outcome,) = results
            assert outcome.failed
            assert outcome.error_type == WORKER_LOST
            assert "retry budget" in outcome.error
            assert scheduler.stats.worker_lost_failures == 1
            assert scheduler.stats.retries == 1
        finally:
            scheduler.close()
            consumer.join(timeout=5.0)


class TestRemovedFrames:
    def test_discarded_frame_drops_the_connection_and_requeues_its_lease(self):
        cells = expand_grid({"x": list(range(4))}, repetitions=1)
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=5.0).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        quitter = honest = None
        try:
            quitter = FakeWorker(scheduler.address, "quitter")
            lease = quitter.take_cell()
            assert 1 + len(lease.get("extra", [])) == len(cells)
            # No ``cancel`` was ever sent, and ``discarded`` is no longer a
            # frame: the scheduler treats it as a protocol error and drops
            # the connection, which requeues the whole lease.
            send_message(quitter.sock, {
                "op": "discarded", "worker": "quitter",
                "campaign": lease["campaign"], "index": lease["index"],
                "attempt": lease["attempt"],
            })
            quitter.sock.settimeout(5.0)
            try:
                assert quitter.sock.recv(1) == b""
            except ConnectionError:
                pass

            honest = FakeWorker(scheduler.address, "honest")
            while len(results) < len(cells) and consumer.is_alive():
                finish_lease(honest, honest.take_cell())
                consumer.join(timeout=0.2)
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert [outcome.metrics for outcome in results] == [
                CellFunction(plain_cell)(cell).metrics for cell in cells
            ]
            # Only the lease head -- the cell the worker was on -- is charged.
            assert scheduler.stats.retries == 1
            assert scheduler.stats.results == len(cells)
            assert scheduler.stats.duplicates == 0
        finally:
            for worker in (quitter, honest):
                if worker is not None:
                    worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)


class TestDuplicateAndLateResults:
    def test_duplicate_result_for_a_done_cell_is_ignored(self):
        cells = expand_grid({"x": [1]}, repetitions=1)
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=5.0).start()
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        worker = None
        try:
            worker = FakeWorker(scheduler.address, "dup")
            task = worker.take_cell()
            worker.finish(task)
            worker.finish(task)  # replayed frame: must not corrupt anything
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors
            assert len(results) == 1
            assert scheduler.stats.results == 1
            # The duplicate frame travels concurrently with the campaign
            # ending; wait for the connection thread to swallow it.
            deadline = time.monotonic() + 5.0
            while scheduler.stats.duplicates < 1 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert scheduler.stats.duplicates >= 1
        finally:
            if worker is not None:
                worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)


class TestStallGuard:
    def test_campaign_with_no_workers_raises_campaign_stalled(self):
        executor = DistributedExecutor(
            workers=0, stall_timeout=0.5, heartbeat_interval=0.1,
            heartbeat_timeout=1.0,
        )
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        with pytest.raises(CampaignStalled):
            list(executor.map(CellFunction(plain_cell), cells))

    def test_concurrent_campaigns_on_one_scheduler_are_rejected(self):
        scheduler = Scheduler(heartbeat_interval=0.1, heartbeat_timeout=5.0).start()
        cells = expand_grid({"x": [1]}, repetitions=1)
        results, errors = [], []
        consumer = threading.Thread(
            target=collect_campaign, args=(scheduler, cells, results, errors)
        )
        consumer.start()
        worker = None
        try:
            time.sleep(0.2)  # let the first campaign register itself
            with pytest.raises(RuntimeError):
                next(iter(scheduler.run_campaign(CellFunction(plain_cell), cells)))
            worker = FakeWorker(scheduler.address, "finisher")
            worker.finish(worker.take_cell())
            consumer.join(timeout=10.0)
            assert not consumer.is_alive() and not errors and len(results) == 1
        finally:
            if worker is not None:
                worker.close()
            scheduler.close()
            consumer.join(timeout=5.0)


class TestSchedulingSettings:
    """Settings no campaign could run with fail at construction."""

    @pytest.mark.parametrize("settings, message", [
        ({"max_retries": -1}, "max_retries must be >= 0"),
        ({"stall_timeout": 0}, "stall_timeout must be > 0"),
        ({"stall_timeout": -5.0}, "stall_timeout must be > 0"),
        (
            {"heartbeat_interval": 1.0, "heartbeat_timeout": 1.0},
            "heartbeat_timeout must exceed heartbeat_interval",
        ),
    ])
    def test_both_constructors_reject_an_unrunnable_setting(self, settings, message):
        with pytest.raises(ValueError, match=message):
            Scheduler("inproc://", **settings)
        with pytest.raises(ValueError, match=message):
            DistributedExecutor("inproc://", workers=1, **settings)

    def test_no_stall_timeout_and_no_retries_are_valid(self):
        Scheduler("inproc://", stall_timeout=None, max_retries=0)
        DistributedExecutor("inproc://", stall_timeout=None, max_retries=0)

    @pytest.mark.parametrize("command", [
        ["run", "fig2.bicriteria", "--smoke", "--comm", "inproc"],
        ["scheduler", "fig2.bicriteria", "--smoke", "--bind", "inproc://"],
    ])
    @pytest.mark.parametrize("flags, message", [
        (["--max-retries", "-1"], "max_retries must be >= 0"),
        (["--stall-timeout", "0"], "stall_timeout must be > 0"),
        (["--stall-timeout", "-5"], "stall_timeout must be > 0"),
    ])
    def test_cli_exits_2_before_any_campaign(self, command, flags, message, capsys):
        assert distributed_main(command + flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "FAIL" not in captured.out


class TestWelcome:
    def test_welcome_advertises_no_lease_cap(self):
        with Scheduler(heartbeat_interval=0.1, heartbeat_timeout=5.0) as scheduler:
            worker = FakeWorker(scheduler.address, "greeted")
            try:
                assert set(worker.welcome) == {"op", "heartbeat_interval", "telemetry"}
            finally:
                worker.close()


class TestWorkerReconnectPromptness:
    def test_connection_closed_mid_request_does_not_wedge_the_worker(self):
        """A scheduler vanishing between campaigns must not cost reply_timeout.

        Regression: the worker sends ``request`` and the scheduler closes the
        connection before replying (exactly what happens when consecutive
        scenarios tear one scheduler down and bind the next).  The reader's
        death has to wake the blocked pull immediately -- a worker that sits
        out the full reply timeout on the dead comm eats into ``max_idle``
        and self-reaps instead of serving the next campaign.
        """

        import asyncio

        from repro.distributed.comm import core as comm_core
        from repro.distributed.worker import AsyncWorker

        async def scenario():
            slammed = asyncio.Event()

            async def slam_after_request(comm):
                message = await comm.recv()
                if message["op"] != "hello":  # a post-slam reconnect raced in
                    await comm.close()
                    return
                await comm.send({"op": "welcome", "heartbeat_interval": 0.2})
                message = await comm.recv()
                assert message["op"] == "request"
                await comm.close()  # no reply: the campaign is over
                slammed.set()

            lst = comm_core.listener("inproc://", slam_after_request)
            await lst.start()
            worker = AsyncWorker(
                lst.address,
                max_idle=0.5,
                reconnect_delay=0.05,
                reply_timeout=5.0,
            )
            run = asyncio.create_task(worker.run())
            await asyncio.wait_for(slammed.wait(), timeout=5.0)
            started = time.monotonic()
            # The scheduler is gone for good: reconnects now fail, so the
            # worker must notice the dead comm, retry, and idle out.
            await lst.stop()
            await asyncio.wait_for(run, timeout=10.0)
            return time.monotonic() - started

        elapsed = asyncio.run(scenario())
        # max_idle (0.5s) plus slack; a wedge would take reply_timeout (5s).
        assert elapsed < 3.0, f"worker wedged on a dead connection ({elapsed:.1f}s)"
