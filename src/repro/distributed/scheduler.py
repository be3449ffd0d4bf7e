"""The campaign scheduler: a single-event-loop asyncio state machine.

One :class:`Scheduler` owns the cell queue of a *campaign* (one sweep routed
through the harness) and serves it to workers over the pluggable comm layer
(:mod:`repro.distributed.comm`): ``tcp://`` sockets for real fleets,
``inproc://`` channels for simulated ones.  Everything runs on **one**
asyncio event loop in a background thread -- one coroutine per connection,
one monitor task -- so a thousand workers cost a thousand small coroutines,
not a thousand OS threads.

Scheduling model -- one policy for every campaign, guided leases corrected
by work stealing:

* **pull-based with guided leases**: workers request work; the reply
  carries ``ceil(pending / connected workers)`` assignments -- guided
  self-scheduling, so early leases are large and amortise the round trip
  while later ones shrink as the queue drains.  The reply forms the
  worker's *lease*, a local backlog it drains in order, sending each result
  before it starts the next cell.  The scheduler tracks every lease as the
  worker's insertion-ordered assignments: the first is the cell the worker
  is running, the rest its unstarted tail, and an entry leaves only when
  the worker's frame for it (``result`` or ``revoked``) arrives.
* **work stealing**: when the global queue is dry, an idle worker's request
  triggers a steal of the larger half of the most-loaded worker's lease
  tail.  This is what corrects a lease after it went out -- a lone early
  worker that leased the whole queue is split as soon as a second worker
  asks.  The steal is two-phase: the victim gets a ``revoke`` push and
  answers with a ``revoked`` frame naming the cells it *actually* still had
  queued (it may have started some in the meantime); only those confirmed
  cells are requeued and handed to idle workers.  Stealing therefore never
  duplicates an execution: a cell has at most one live attempt at any time,
  and only a worker loss or a confirmed steal moves it to another worker.
* **ordered streaming**: :meth:`run_campaign` yields outcomes in submission
  order (out-of-order completions are buffered), which is what keeps
  distributed rows bit-identical to
  :class:`~repro.experiments.executors.SerialExecutor` rows under stealing
  and retries alike: results are keyed by position, and each cell carries
  its own deterministic seed, so *which* worker runs a cell cannot change a
  row.
* **fault tolerance**: a dropped connection or a missed-heartbeat eviction
  requeues the worker's lease at the *front* of the queue.  Only the lease
  head -- the cell that was running -- is charged a retry; the cells queued
  behind it never started and go back free.  Past a bounded per-cell retry budget
  the cell is failed with a ``WorkerLostError`` outcome that the harness
  surfaces as :class:`~repro.experiments.harness.CellExecutionError`.
* **resumability**: with a
  :class:`~repro.distributed.campaign.CampaignJournal` attached, completed
  cells are appended as they stream in and journaled cells of a restarted
  campaign are replayed without re-execution.

The heartbeat monitor is event-driven: it sleeps until the earliest
possible eviction deadline (or forever while no worker is connected) and is
woken by membership changes -- an idle scheduler no longer polls at 5 Hz.
"""

from __future__ import annotations

import asyncio
import threading
import time
import uuid
from collections import deque
from dataclasses import dataclass, field, fields
from itertools import islice
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.distributed import protocol
from repro.distributed.campaign import CampaignJournal
from repro.distributed.comm import core as comm_core
from repro.distributed.comm.core import Comm, CommError
from repro.experiments.grid import Cell, CellOutcome
from repro.telemetry import (
    TOPIC_ASSIGNMENTS,
    TOPIC_QUEUE,
    TOPIC_SCHEDULER,
    TOPIC_SCHEDULER_SPANS,
    TOPIC_STATS,
    TOPIC_WORKERS,
    TelemetryBus,
    get_bus,
)
from repro.telemetry.events import SCHEMA_VERSION, worker_topic

#: ``error_type`` recorded on a cell whose retry budget was exhausted by
#: worker deaths (connection drops / heartbeat timeouts).
WORKER_LOST = "WorkerLostError"

#: Delay (seconds) suggested to an idle worker before its next request.
IDLE_DELAY = 0.05


@dataclass
class SchedulerStats:
    """Monotonic scheduling counters with one versioned export shape.

    :meth:`to_payload` is the single snapshot format consumed by the CLI
    stderr summary, the dashboard's stats endpoint and the tests; it pairs
    the raw counters with derived rates so consumers never re-implement the
    arithmetic.  :meth:`counters` is the plain name-to-count mapping.
    """

    workers_joined: int = 0
    evictions: int = 0
    retries: int = 0
    results: int = 0
    duplicates: int = 0
    journal_hits: int = 0
    worker_lost_failures: int = 0
    steals: int = 0

    def counters(self) -> Dict[str, int]:
        """The raw monotonic counters, in declaration order."""

        return {spec.name: getattr(self, spec.name) for spec in fields(self)}

    def to_payload(self, *, elapsed_seconds: Optional[float] = None) -> Dict[str, Any]:
        """Versioned stats snapshot: ``schema_version`` + counters + rates.

        ``elapsed_seconds`` (when the caller tracked a campaign wall clock)
        adds a ``results_per_second`` throughput rate.
        """

        counters = self.counters()
        delivered = counters["results"]
        attempts = delivered + counters["duplicates"]
        rates: Dict[str, float] = {
            "steal_fraction": counters["steals"] / delivered if delivered else 0.0,
            "duplicate_fraction": counters["duplicates"] / attempts if attempts else 0.0,
            "retry_fraction": counters["retries"] / delivered if delivered else 0.0,
        }
        if elapsed_seconds is not None and elapsed_seconds > 0:
            rates["results_per_second"] = delivered / elapsed_seconds
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "scheduler-stats",
            "counters": counters,
            "rates": rates,
        }

    def add(self, other: "SchedulerStats") -> None:
        for key, value in other.counters().items():
            setattr(self, key, getattr(self, key) + value)


@dataclass
class _Assignment:
    """One live attempt of one cell on one worker."""

    position: int
    attempt: int
    conn: "_WorkerConn"
    #: A revoke asking for this cell back is in flight; it stays the
    #: worker's until the worker confirms it never started it.
    revoking: bool = False


@dataclass
class _WorkerConn:
    """Scheduler-side state of one connected worker."""

    worker_id: str
    comm: Comm
    last_seen: float
    #: The worker's lease: live assignments keyed by position, in dispatch
    #: order.  The first is the cell the worker is running (it sends each
    #: result before it starts the next entry); the rest are the stealable
    #: backlog it has not started.
    assignments: Dict[int, _Assignment] = field(default_factory=dict)
    fn_campaign: Optional[str] = None  # campaign the fn payload was sent for
    evicted: bool = False
    #: Monotonic stamp of the last ``revoke`` push, for steal round-trip spans.
    revoke_sent_at: Optional[float] = None
    # Aggregated from forwarded ``telemetry`` frames (span payloads); feeds
    # the per-worker occupancy column in :meth:`Scheduler.telemetry_snapshot`.
    busy_seconds: float = 0.0
    idle_seconds: float = 0.0
    overhead_seconds: float = 0.0
    cells_reported: int = 0
    events_forwarded: int = 0
    forward_dropped: int = 0


@dataclass
class _Campaign:
    """One sweep being served: queue, buffered results, retry bookkeeping."""

    campaign_id: str
    cells: Sequence[Cell]
    fn_payload: str
    version: str
    pending: Deque[int] = field(default_factory=deque)  # positions awaiting a worker
    done: set = field(default_factory=set)              # positions with a result
    results: Dict[int, CellOutcome] = field(default_factory=dict)
    attempts: Dict[int, int] = field(default_factory=dict)      # total assignments
    loss_retries: Dict[int, int] = field(default_factory=dict)  # worker-loss requeues
    running: Dict[int, _Assignment] = field(default_factory=dict)  # the live attempt


class CampaignStalled(RuntimeError):
    """No workers were connected for longer than the stall timeout."""


def validate_scheduling(
    *,
    heartbeat_interval: float,
    heartbeat_timeout: float,
    max_retries: int,
    stall_timeout: Optional[float],
) -> None:
    """Reject scheduling settings no campaign could run with.

    Shared by :class:`Scheduler` and the executor that builds one per
    campaign, so a bad value fails at construction -- where the CLIs turn
    it into a usage error -- instead of failing every campaign later.
    """

    if heartbeat_timeout <= heartbeat_interval:
        raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if stall_timeout is not None and not stall_timeout > 0:
        raise ValueError("stall_timeout must be > 0")


class Scheduler:
    """Serve sweep campaigns to comm-connected workers.

    Parameters
    ----------
    address:
        Any registered comm address (``tcp://host:port``, ``inproc://name``);
        tcp port ``0`` picks an ephemeral port and ``inproc://`` with an
        empty location picks a fresh token -- read the bound address back
        from :attr:`address`.
    heartbeat_interval:
        Interval advertised to workers in the welcome message.
    heartbeat_timeout:
        A worker silent for longer than this is evicted and its in-flight
        cells requeued.  Must comfortably exceed ``heartbeat_interval``.
    max_retries:
        How many times (``>= 0``) a cell may be lost with its worker -- lost
        while it was running, at the head of the worker's lease -- before it
        is failed with a ``WorkerLostError`` outcome.
    journal:
        Optional :class:`CampaignJournal` (or path): completed cells are
        appended, journaled cells are replayed on restart.
    stall_timeout:
        When set (``> 0``), :meth:`run_campaign` raises
        :class:`CampaignStalled` if cells are pending but no worker has been
        connected for this long.
    telemetry:
        Where scheduling events (worker membership, assignments, steals,
        queue depth, stats snapshots) are published: ``None``
        (default) uses the process-wide bus from
        :func:`repro.telemetry.get_bus`, a :class:`TelemetryBus` targets
        that bus, ``False`` disables publishing entirely.  Telemetry is
        observation only and cannot change scheduling decisions or row
        contents.
    """

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        *,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 10.0,
        max_retries: int = 3,
        journal: Union[None, str, CampaignJournal] = None,
        stall_timeout: Optional[float] = None,
        telemetry: Union[None, bool, TelemetryBus] = None,
    ) -> None:
        validate_scheduling(
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            max_retries=max_retries,
            stall_timeout=stall_timeout,
        )
        comm_core.validate_address(address)
        self._requested_address = address
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.max_retries = max_retries
        self.journal = CampaignJournal.coerce(journal)
        self.stall_timeout = stall_timeout
        self.stats = SchedulerStats()
        if telemetry is False:
            self._bus: Optional[TelemetryBus] = None
        elif telemetry is None or telemetry is True:
            self._bus = get_bus()
        else:
            self._bus = telemetry

        self._lock = threading.Condition()
        self._conns: Dict[str, _WorkerConn] = {}
        self._campaign: Optional[_Campaign] = None
        self._closed = False
        self._last_worker_seen = time.monotonic()

        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._listener: Optional[comm_core.Listener] = None
        self._monitor_wake: Optional[asyncio.Event] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Scheduler":
        """Spin up the event-loop thread and bind the listener."""

        if self._thread is not None:
            raise RuntimeError("scheduler already started")
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-scheduler-loop", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=30.0)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=2.0)
            self._thread = None
            raise error
        if not self._started.is_set():
            raise RuntimeError("scheduler event loop failed to start in time")
        return self

    def _run_loop(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # surface startup failures to start()
            if not self._started.is_set():
                self._startup_error = error
        finally:
            self._started.set()
            with self._lock:
                self._lock.notify_all()  # wake any consumer blocked mid-campaign

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._monitor_wake = asyncio.Event()
        listener = comm_core.listener(self._requested_address, self._serve_comm)
        await listener.start()
        self._listener = listener
        self._last_worker_seen = time.monotonic()
        self._started.set()
        source_name = f"scheduler@{self.address}"
        if self._bus is not None:
            self._bus.add_snapshot_source(source_name, self.telemetry_snapshot)
        monitor = asyncio.create_task(self._monitor())
        lag_probe: Optional["asyncio.Task"] = None
        if self._bus is not None:
            lag_probe = asyncio.create_task(self._lag_probe())
        try:
            await self._shutdown.wait()
        finally:
            if self._bus is not None:
                self._bus.remove_snapshot_source(source_name)
            monitor.cancel()
            if lag_probe is not None:
                lag_probe.cancel()
            await listener.stop()
            with self._lock:
                conns = list(self._conns.values())
            for conn in conns:
                await conn.comm.close()

    @property
    def address(self) -> str:
        """The bound contact address (valid after :meth:`start`)."""

        if self._listener is not None:
            return self._listener.address
        return self._requested_address

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._lock.notify_all()
        if self._thread is None:
            return
        self._started.wait(timeout=5.0)
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop already gone
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "Scheduler":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def worker_count(self) -> int:
        with self._lock:
            return len(self._conns)

    def spawn_local_worker(self, **worker_kwargs: object) -> "asyncio.Future":
        """Run an :class:`~repro.distributed.worker.AsyncWorker` on this
        scheduler's own event loop, connected to :attr:`address`.

        This is how ``inproc://`` fleets are raised: each worker is one
        coroutine, so a thousand of them fit in one process.  Returns the
        ``concurrent.futures.Future`` of the worker's ``run()``.
        """

        from repro.distributed.worker import AsyncWorker

        if self._loop is None:
            raise RuntimeError("scheduler is not started")
        worker = AsyncWorker(self.address, **worker_kwargs)  # type: ignore[arg-type]
        return asyncio.run_coroutine_threadsafe(worker.run(), self._loop)

    # -- campaign execution -------------------------------------------------

    def run_campaign(
        self,
        fn: Callable[[Cell], CellOutcome],
        cells: Sequence[Cell],
        *,
        version: Optional[str] = None,
    ) -> Iterator[CellOutcome]:
        """Register a campaign of ``fn`` over ``cells``; return its ordered stream.

        The campaign is registered before this returns, so a fleet raised
        afterwards finds work on its first request.  The stream yields
        outcomes in submission order; exhausting or closing it (or dropping
        it) ends the campaign.  ``version`` keys the journal entries; it
        defaults to :func:`~repro.experiments.harness.run_fingerprint` of the
        wrapped run function, mirroring the result-cache versioning.
        """

        cells = list(cells)
        if not cells:
            return iter(())
        stream = self._campaign_stream(fn, cells, version)
        next(stream)  # run up to the registration, inside the try/finally
        return stream

    def _campaign_stream(
        self,
        fn: Callable[[Cell], CellOutcome],
        cells: List[Cell],
        version: Optional[str],
    ) -> Iterator[CellOutcome]:
        if version is None:
            version = self._fingerprint(fn)
        campaign = _Campaign(
            campaign_id=uuid.uuid4().hex[:12],
            cells=cells,
            fn_payload=protocol.encode_payload(fn),
            version=version,
        )
        # Replay journaled cells; queue only the incomplete ones.
        for position, cell in enumerate(cells):
            replayed = self.journal.lookup(cell, version) if self.journal else None
            if replayed is not None:
                campaign.results[position] = replayed
                campaign.done.add(position)
                self.stats.journal_hits += 1
            else:
                campaign.pending.append(position)

        with self._lock:
            if self._campaign is not None:
                raise RuntimeError("scheduler already has an active campaign")
            if self._closed:
                raise RuntimeError("scheduler is closed")
            self._campaign = campaign
            self._last_worker_seen = time.monotonic()
            self._lock.notify_all()
        started_at = time.monotonic()
        self._emit(
            TOPIC_SCHEDULER, "campaign-start", campaign=campaign.campaign_id,
            cells=len(cells), pending=len(campaign.pending),
            journal_hits=len(campaign.done),
        )
        try:
            yield None  # type: ignore[misc]  # consumed by run_campaign
            for position in range(len(cells)):
                with self._lock:
                    while position not in campaign.results:
                        self._check_stalled(campaign)
                        if self._closed:
                            raise RuntimeError("scheduler closed mid-campaign")
                        self._lock.wait(timeout=0.25)
                    outcome = campaign.results.pop(position)
                yield outcome
        finally:
            with self._lock:
                self._campaign = None
                done = len(campaign.done)
                self._lock.notify_all()
            elapsed = time.monotonic() - started_at
            self._emit(
                TOPIC_SCHEDULER, "campaign-end", campaign=campaign.campaign_id,
                cells=len(cells), done=done, elapsed_seconds=elapsed,
            )
            if self._bus is not None:
                # to_payload() is already a complete versioned payload
                # (schema_version + kind); publish it as-is, tagged with
                # the campaign it summarizes.
                body = self.stats.to_payload(elapsed_seconds=elapsed)
                body["campaign"] = campaign.campaign_id
                self._bus.publish(TOPIC_STATS, body)

    @staticmethod
    def _fingerprint(fn: Callable[[Cell], CellOutcome]) -> str:
        from repro.experiments.harness import run_fingerprint

        return run_fingerprint(getattr(fn, "run", fn))

    def _check_stalled(self, campaign: _Campaign) -> None:
        """Raise when cells are pending but no worker has shown up for too long.

        Called with the lock held.
        """

        if self.stall_timeout is None:
            return
        if self._conns:
            self._last_worker_seen = time.monotonic()
            return
        outstanding = len(campaign.cells) - len(campaign.done)
        if outstanding and time.monotonic() - self._last_worker_seen > self.stall_timeout:
            raise CampaignStalled(
                f"campaign {campaign.campaign_id} stalled: {outstanding} cell(s) "
                f"outstanding but no worker connected to {self.address} for "
                f"{self.stall_timeout:.0f}s"
            )

    # -- the heartbeat-eviction monitor (event-driven, no busy-poll) --------

    async def _monitor(self) -> None:
        """Evict workers whose heartbeat went silent for too long.

        Sleeps until the earliest possible eviction deadline, or forever
        while no worker is connected; membership changes set
        ``_monitor_wake``.  An idle scheduler therefore burns zero CPU
        between events instead of polling at 5 Hz.
        """

        assert self._monitor_wake is not None
        while True:
            self._monitor_wake.clear()
            with self._lock:
                conns = [c for c in self._conns.values() if not c.evicted]
            if not conns:
                await self._monitor_wake.wait()
                continue
            now = time.monotonic()
            stale = [c for c in conns if now - c.last_seen > self.heartbeat_timeout]
            if stale:
                with self._lock:
                    for conn in stale:
                        conn.evicted = True
                for conn in stale:
                    self.stats.evictions += 1
                    self._emit(
                        TOPIC_WORKERS, "worker-evicted", worker=conn.worker_id,
                        silent_seconds=now - conn.last_seen,
                    )
                    # Closing the comm unblocks the connection's serve task,
                    # whose cleanup path requeues the in-flight cells.
                    await conn.comm.close()
                continue
            deadline = min(c.last_seen for c in conns) + self.heartbeat_timeout
            try:
                await asyncio.wait_for(
                    self._monitor_wake.wait(),
                    timeout=max(deadline - time.monotonic(), 0.005),
                )
            except asyncio.TimeoutError:
                pass

    #: Cadence (and baseline) of the event-loop lag probe.
    LAG_PROBE_INTERVAL = 0.5

    async def _lag_probe(self) -> None:
        """Sample event-loop lag: how late a timed sleep fires.

        High lag means frame handling or lock-held sections are starving
        the loop -- heartbeats and steals degrade before anything visibly
        breaks, so this is the canary.  Runs only when a bus is attached.
        """

        interval = self.LAG_PROBE_INTERVAL
        while True:
            before = time.monotonic()
            await asyncio.sleep(interval)
            lag = max(time.monotonic() - before - interval, 0.0)
            self._emit(
                TOPIC_SCHEDULER_SPANS, "span", name="scheduler.loop_lag",
                seconds=lag, interval=interval,
            )

    # -- per-connection protocol handling -----------------------------------

    async def _serve_comm(self, comm: Comm) -> None:
        conn: Optional[_WorkerConn] = None
        try:
            hello = await comm.recv()
            if hello.get("op") != "hello":
                return
            worker_id = str(hello.get("worker") or uuid.uuid4().hex[:8])
            conn = _WorkerConn(worker_id=worker_id, comm=comm, last_seen=time.monotonic())
            with self._lock:
                if self._closed:
                    return
                # A reconnecting worker id replaces its stale connection.
                previous = self._conns.pop(worker_id, None)
                self._conns[worker_id] = conn
                self.stats.workers_joined += 1
                self._last_worker_seen = time.monotonic()
                workers = len(self._conns)
                self._lock.notify_all()
            self._monitor_wake_up()
            self._emit(
                TOPIC_WORKERS, "worker-joined", worker=worker_id, workers=workers,
                reconnect=previous is not None,
            )
            if previous is not None:
                await previous.comm.close()
            await comm.send(
                {
                    "op": "welcome",
                    "heartbeat_interval": self.heartbeat_interval,
                    # Advertise span capture + forwarding only when there is
                    # a bus to re-publish on; workers stay zero-cost otherwise.
                    "telemetry": self._bus is not None,
                }
            )
            while True:
                message = await comm.recv()
                op = message.get("op")
                with self._lock:
                    conn.last_seen = time.monotonic()
                if op == "request":
                    await self._handle_request(conn)
                elif op == "result":
                    await self._handle_result(conn, message)
                elif op == "revoked":
                    self._handle_revoked(conn, message)
                elif op == "telemetry":
                    self._handle_telemetry(conn, message)
                elif op == "heartbeat":
                    pass
                elif op == "bye":
                    return
                else:
                    raise protocol.ProtocolError(f"unexpected op {op!r} from worker")
        except (CommError, OSError, asyncio.IncompleteReadError):
            pass  # connection lost: the finally-block requeues in-flight work
        finally:
            if conn is not None:
                self._forget_connection(conn)
            await comm.close()
            self._monitor_wake_up()

    def _monitor_wake_up(self) -> None:
        if self._monitor_wake is not None:
            self._monitor_wake.set()

    # -- telemetry (observation only: no scheduling decision reads the bus) --

    def _emit(self, topic: str, kind: str, **fields: Any) -> None:
        bus = self._bus
        if bus is not None:
            bus.emit(topic, kind, **fields)

    def _queue_sample(self, campaign: "_Campaign") -> Dict[str, Any]:
        """A compact queue-depth payload (lock held)."""

        return {
            "campaign": campaign.campaign_id,
            "total": len(campaign.cells),
            "pending": len(campaign.pending),
            "running": len(campaign.running),
            "done": len(campaign.done),
            "workers": len(self._conns),
        }

    #: Upper bound on events accepted per forwarded ``telemetry`` frame; a
    #: mis-batching worker gets truncated, never buffered without bound.
    TELEMETRY_FRAME_CAP = 1024

    def _handle_telemetry(self, conn: _WorkerConn, message: Dict[str, object]) -> None:
        """Re-publish a worker's forwarded events under ``worker.<id>.*``.

        Fire-and-forget in both directions: bad entries are skipped, the
        frame is capped, and nothing here touches scheduling state beyond
        the per-worker occupancy aggregates.
        """

        entries = message.get("events")
        if not isinstance(entries, list):
            return
        truncated = len(entries) > self.TELEMETRY_FRAME_CAP
        if truncated:
            entries = entries[: self.TELEMETRY_FRAME_CAP]
        bus = self._bus
        busy = idle = overhead = 0.0
        cells = 0
        accepted = 0
        for entry in entries:
            if not isinstance(entry, dict):
                continue
            body = entry.get("payload")
            if not isinstance(body, dict):
                continue
            accepted += 1
            if body.get("kind") == "span":
                name = body.get("name")
                try:
                    seconds = float(body.get("seconds") or 0.0)
                except (TypeError, ValueError):
                    seconds = 0.0
                if name == "cell.execute":
                    busy += seconds
                    cells += 1
                elif name == "worker.idle":
                    idle += seconds
                elif name in ("cell.deserialize", "cell.serialize"):
                    overhead += seconds
            if bus is not None:
                topic = str(entry.get("topic") or "events")
                bus.publish(worker_topic(conn.worker_id, topic), dict(body))
        dropped = message.get("dropped")
        with self._lock:
            conn.busy_seconds += busy
            conn.idle_seconds += idle
            conn.overhead_seconds += overhead
            conn.cells_reported += cells
            conn.events_forwarded += accepted
            if isinstance(dropped, int):
                conn.forward_dropped = dropped
        if truncated:
            self._emit(
                TOPIC_WORKERS, "telemetry-truncated", worker=conn.worker_id,
                cap=self.TELEMETRY_FRAME_CAP,
            )

    @staticmethod
    def _occupancy(conn: _WorkerConn) -> float:
        total = conn.busy_seconds + conn.idle_seconds + conn.overhead_seconds
        return conn.busy_seconds / total if total > 0 else 0.0

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Live occupancy view served through the bus snapshot registry.

        Queue depth, per-worker occupancy (live assignments, i.e. the lease,
        plus busy/idle seconds aggregated from forwarded worker spans) and
        the current stats payload, all JSON-safe.
        """

        with self._lock:
            now = time.monotonic()
            workers = {
                conn.worker_id: {
                    "assignments": len(conn.assignments),
                    "evicted": conn.evicted,
                    "last_seen_age": now - conn.last_seen,
                    "busy_seconds": conn.busy_seconds,
                    "idle_seconds": conn.idle_seconds,
                    "overhead_seconds": conn.overhead_seconds,
                    "occupancy": self._occupancy(conn),
                    "cells": conn.cells_reported,
                    "events_forwarded": conn.events_forwarded,
                    "events_dropped": conn.forward_dropped,
                }
                for conn in self._conns.values()
            }
            campaign = self._campaign
            queue = self._queue_sample(campaign) if campaign is not None else None
            stats = self.stats.to_payload()
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": "scheduler-snapshot",
            "address": self.address,
            "workers": workers,
            "queue": queue,
            "stats": stats,
        }

    # -- assignment: queue, steal -------------------------------------------

    def _lease_size(self, campaign: _Campaign) -> int:
        """Cells for the next ``task`` reply (lock held).

        Guided self-scheduling: an equal share ``ceil(pending / connected
        workers)`` of what is still queued.
        """

        return -(-len(campaign.pending) // max(1, len(self._conns)))

    def _assign(
        self, campaign: _Campaign, conn: _WorkerConn, position: int
    ) -> Dict[str, object]:
        """Record one attempt and build its wire entry (lock held)."""

        attempt = campaign.attempts.get(position, 0) + 1
        campaign.attempts[position] = attempt
        assignment = _Assignment(position=position, attempt=attempt, conn=conn)
        conn.assignments[position] = assignment
        campaign.running[position] = assignment
        return {
            "index": position,
            "attempt": attempt,
            "cell": protocol.encode_payload(campaign.cells[position]),
        }

    def _request_steal(
        self, campaign: _Campaign, thief: _WorkerConn
    ) -> Optional[Tuple[_WorkerConn, Dict[str, object]]]:
        """Ask the most-loaded worker to give its lease tail back (lock held).

        Phase one of a two-phase steal: the cells stay the victim's until
        its ``revoked`` confirmation arrives (see :meth:`_handle_revoked`),
        because only the victim knows which of them it has already started.
        The lease head is never asked for -- it is (probably) executing.
        Returns the ``revoke`` push for the victim, or ``None`` when nobody
        has a stealable backlog.
        """

        def stealable(conn: _WorkerConn) -> List[int]:
            tail = islice(conn.assignments.values(), 1, None)
            return [a.position for a in tail if not a.revoking]

        # Candidate victims come from the live assignments, not the fleet:
        # with thousands of mostly-idle workers, the scan must be bounded by
        # outstanding work, not by fleet size.
        loaded = {id(a.conn): a.conn for a in campaign.running.values()}
        victim, candidates = None, []
        for candidate in loaded.values():
            if candidate is thief or candidate.evicted:
                continue
            tail = stealable(candidate)
            if len(tail) > len(candidates):
                victim, candidates = candidate, tail
        if victim is None or not candidates:
            return None
        wanted = candidates[len(candidates) // 2:]  # the larger half, from the end
        for position in wanted:
            victim.assignments[position].revoking = True
        victim.revoke_sent_at = time.monotonic()
        return (
            victim,
            {"op": "revoke", "campaign": campaign.campaign_id, "indices": wanted},
        )

    def _handle_revoked(self, conn: _WorkerConn, message: Dict[str, object]) -> None:
        """Phase two of a steal: requeue the cells the victim confirmed."""

        stolen: List[int] = []
        campaign_id = ""
        round_trip: Optional[float] = None
        with self._lock:
            if conn.revoke_sent_at is not None:
                round_trip = time.monotonic() - conn.revoke_sent_at
                conn.revoke_sent_at = None
            removed = [int(i) for i in (message.get("indices") or [])]  # type: ignore[union-attr]
            kept = [int(i) for i in (message.get("kept") or [])]  # type: ignore[union-attr]
            for position in kept:
                assignment = conn.assignments.get(position)
                if assignment is not None:
                    assignment.revoking = False  # started after all; still its
            campaign = self._campaign
            if campaign is None or campaign.campaign_id != message.get("campaign"):
                for position in removed:
                    assignment = conn.assignments.get(position)
                    if assignment is not None:
                        assignment.revoking = False
                return
            requeue: List[int] = []
            for position in removed:
                assignment = conn.assignments.pop(position, None)
                if assignment is None:
                    continue
                if campaign.running.get(position) is assignment:
                    del campaign.running[position]
                    requeue.append(position)
                    self.stats.steals += 1
            # Front of the queue, oldest first: stolen cells are older than
            # anything still pending, and idle workers re-request within
            # IDLE_DELAY, so they move immediately.
            for position in reversed(requeue):
                campaign.pending.appendleft(position)
            stolen = requeue
            campaign_id = campaign.campaign_id
            self._lock.notify_all()
        if round_trip is not None:
            # Two-phase steal round trip: revoke pushed -> revoked received.
            self._emit(
                TOPIC_SCHEDULER_SPANS, "span", name="scheduler.steal",
                seconds=round_trip, victim=conn.worker_id, stolen=len(stolen),
            )
        if stolen:
            self._emit(
                TOPIC_ASSIGNMENTS, "steal", campaign=campaign_id,
                victim=conn.worker_id, positions=stolen,
            )

    async def _handle_request(self, conn: _WorkerConn) -> None:
        pushes: List[Tuple[_WorkerConn, Dict[str, object]]] = []
        assigned: List[Tuple[int, int]] = []  # (position, attempt)
        steal_victim: Optional[str] = None
        queue_sample: Optional[Dict[str, Any]] = None
        assign_started = time.monotonic() if self._bus is not None else None
        with self._lock:
            campaign = self._campaign
            batch: List[Dict[str, object]] = []
            if campaign is not None and not conn.evicted:
                size = self._lease_size(campaign)
                while len(batch) < size and campaign.pending:
                    position = campaign.pending.popleft()
                    if position in campaign.done or position in conn.assignments:
                        continue
                    batch.append(self._assign(campaign, conn, position))
                    assigned.append((position, campaign.attempts[position]))
                if not batch:
                    push = self._request_steal(campaign, conn)
                    if push is not None:
                        pushes.append(push)
                        steal_victim = push[0].worker_id
                if assigned:
                    queue_sample = self._queue_sample(campaign)
            if batch:
                reply = {
                    "op": "task",
                    "campaign": campaign.campaign_id,
                    **batch[0],
                }
                if len(batch) > 1:
                    reply["extra"] = batch[1:]
                if conn.fn_campaign != campaign.campaign_id:
                    reply["fn"] = campaign.fn_payload
                    conn.fn_campaign = campaign.campaign_id
            else:
                reply = {"op": "idle", "delay": IDLE_DELAY}
        if assign_started is not None and assigned:
            # Lock-held selection latency: how long building this worker's
            # batch took (queue pops + steal scan + wire entries).
            self._emit(
                TOPIC_SCHEDULER_SPANS, "span", name="scheduler.assign",
                seconds=time.monotonic() - assign_started,
                worker=conn.worker_id, cells=len(assigned),
            )
        for position, attempt in assigned:
            self._emit(
                TOPIC_ASSIGNMENTS, "assign", campaign=campaign.campaign_id,
                position=position, attempt=attempt, worker=conn.worker_id,
            )
        if steal_victim is not None:
            self._emit(
                TOPIC_ASSIGNMENTS, "steal-requested", campaign=campaign.campaign_id,
                thief=conn.worker_id, victim=steal_victim,
            )
        if queue_sample is not None:
            self._emit(TOPIC_QUEUE, "queue-sample", **queue_sample)
        for victim, message in pushes:
            try:
                await victim.comm.send(message)
            except (CommError, OSError):
                pass  # the victim is dying; its cleanup path covers the cells
        await conn.comm.send(reply)

    # -- results ------------------------------------------------------------

    async def _handle_result(self, conn: _WorkerConn, message: Dict[str, object]) -> None:
        outcome = protocol.decode_payload(str(message.get("outcome")))
        position = int(message.get("index", -1))  # type: ignore[arg-type]
        record = None
        queue_sample: Optional[Dict[str, Any]] = None
        with self._lock:
            campaign = self._campaign
            # This connection's bookkeeping for the cell is settled either way.
            conn.assignments.pop(position, None)
            if (
                campaign is None
                or campaign.campaign_id != message.get("campaign")
                or position in campaign.done
                or not 0 <= position < len(campaign.cells)
            ):
                self.stats.duplicates += 1
                self._emit(
                    TOPIC_ASSIGNMENTS, "duplicate-result",
                    campaign=str(message.get("campaign") or ""),
                    position=position, worker=conn.worker_id,
                )
                return
            campaign.done.add(position)
            campaign.results[position] = outcome
            self.stats.results += 1
            campaign.running.pop(position, None)
            if self.journal is not None and not outcome.failed:
                record = (campaign.cells[position], outcome, campaign.version)
            queue_sample = self._queue_sample(campaign)
            self._lock.notify_all()
        self._emit(
            TOPIC_ASSIGNMENTS, "result", campaign=campaign.campaign_id,
            position=position, worker=conn.worker_id,
            failed=bool(outcome.failed),
        )
        if queue_sample is not None:
            self._emit(TOPIC_QUEUE, "queue-sample", **queue_sample)
        if record is not None:
            self.journal.record(*record)

    # -- connection loss ----------------------------------------------------

    def _forget_connection(self, conn: _WorkerConn) -> None:
        """Drop a dead connection and requeue (or fail) its lease.

        Only the lease head -- the cell the worker was running when it died
        -- is charged against the retry budget: the worker sends each result
        before it starts the next cell, so every entry behind the head never
        started and goes back to the queue free.
        """

        with self._lock:
            if self._conns.get(conn.worker_id) is conn:
                del self._conns[conn.worker_id]
            workers = len(self._conns)
            lost_before = self.stats.worker_lost_failures
            lost = list(conn.assignments.values())
            head = lost[0].position if lost else None
            conn.assignments.clear()
            campaign = self._campaign
            if campaign is None or not lost:
                self._lock.notify_all()
                self._emit(
                    TOPIC_WORKERS, "worker-left", worker=conn.worker_id,
                    workers=workers, requeued=0, failed=0,
                )
                return
            requeue: List[int] = []
            for assignment in lost:
                position = assignment.position
                if campaign.running.get(position) is not assignment:
                    continue  # settled, or left over from an ended campaign
                del campaign.running[position]
                if position != head:
                    requeue.append(position)
                    continue
                losses = campaign.loss_retries.get(position, 0) + 1
                campaign.loss_retries[position] = losses
                if losses > self.max_retries:
                    cell = campaign.cells[position]
                    campaign.done.add(position)
                    campaign.results[position] = CellOutcome(
                        cell=cell,
                        error=(
                            f"cell {cell.describe()} lost with worker "
                            f"{conn.worker_id!r} (connection dropped or heartbeat "
                            f"timed out) on attempt "
                            f"{campaign.attempts.get(position, losses)}; retry "
                            f"budget of {self.max_retries} exhausted"
                        ),
                        error_type=WORKER_LOST,
                    )
                    self.stats.worker_lost_failures += 1
                else:
                    requeue.append(position)
                    self.stats.retries += 1
            # Front of the queue, oldest first: a retried cell is the oldest
            # submission still outstanding, so finishing it first keeps the
            # ordered result stream moving.
            for position in reversed(requeue):
                campaign.pending.appendleft(position)
            failed = self.stats.worker_lost_failures - lost_before
            self._lock.notify_all()
            self._emit(
                TOPIC_WORKERS, "worker-left", worker=conn.worker_id,
                workers=workers, requeued=len(requeue), failed=failed,
            )
