"""The campaign worker: connect, register, heartbeat, pull cells, stream results.

A worker is an asyncio state machine around one comm connection to the
scheduler (:mod:`repro.distributed.scheduler`):

* connect and ``hello``, read the ``welcome`` (which advertises the
  heartbeat interval);
* loop: ``request`` work; a ``task`` reply may carry several assignments
  (the *lease*, a guided share of the scheduler's queue), an ``idle`` reply
  means sleep briefly and re-request;
* a lease is run by one *drain loop* in one thread hop (``run_in_executor``;
  ``inline=True`` runs the same loop on the event loop thread).  It pops
  each entry under a lock, checks cancellation before and after the cell,
  and sends the result (telemetry first) with the comm's synchronous send
  before it pops the next one -- so the head of the scheduler's view of the
  lease is the running cell.  It is bound to its own connection's
  backlog and stops at the next cell once that comm is closed;
* pushed frames arrive at any time: ``revoke`` asks for lease entries back
  for an idle worker to steal -- the worker drops, under the drain's lock,
  the ones not yet popped and confirms with a ``revoked`` frame (cells it
  already started stay its own, which is what keeps stealing
  duplicate-free); ``cancel`` marks an assignment that lost a speculative
  race: the drain skips it (or drops its result) and answers ``discarded``
  instead, so every lease entry gets exactly one frame back;
* a heartbeat task keeps ``heartbeat`` frames flowing on the same comm
  while the drain runs (the event loop -- and with it heartbeats, revokes
  and cancellation -- stays live during long cells);
* when the ``welcome`` advertises ``telemetry``, the worker times each
  cell's deserialize / execute / serialize phases plus its own idle waits
  with monotonic spans on a private local bus; the drain forwards them in
  an additive ``telemetry`` frame before each result, and a pump task
  covers idle periods.  The scheduler re-publishes them under
  ``worker.<id>.*`` topics; see :meth:`Scheduler._handle_telemetry`.
  Telemetry frames are fire-and-forget metadata: results and digests are
  identical with them on or off.

The cell function travels pickled inside the first ``task`` of each
campaign and is cached for the campaign's duration, so it must either be
importable from the worker process (module-level functions,
``functools.partial`` of them -- true for every registered scenario and
benchmark sweep) or the worker must share the submitting process: forked, as
:class:`~repro.distributed.executor.DistributedExecutor` spawns its local
``tcp://`` mini-cluster, or literally the same process, as ``inproc://``
fleets are -- both keep even test-local functions picklable by reference.

When the scheduler goes away the worker loops back to reconnecting, so one
long-lived worker serves any number of consecutive campaigns; ``max_idle``
bounds how long it lingers without useful work (connection attempts
included) before exiting -- the knob CI uses to make workers self-reap.

:class:`AsyncWorker` is the state machine itself (1000 of them fit on one
event loop -- see :meth:`Scheduler.spawn_local_worker`); :class:`Worker`
wraps it behind the old synchronous ``run()`` surface for worker processes
and the CLI.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
import uuid
from collections import deque
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

from repro.distributed import protocol
from repro.distributed.comm import core as comm_core
from repro.distributed.comm.core import Comm, CommError
from repro.experiments.grid import Cell, CellOutcome
from repro.telemetry.bus import Subscription, TelemetryBus
from repro.telemetry.spans import SpanRecorder

#: How long a worker waits between connection attempts while the scheduler
#: is down (e.g. between two campaigns bound to the same address).
RECONNECT_DELAY = 0.2

#: Upper bound on events per ``telemetry`` frame; anything beyond waits for
#: the next pump tick (the local bus buffer is itself bounded, so a chatty
#: worker drops oldest events rather than growing frames without bound).
TELEMETRY_BATCH = 256

#: Ring/buffer size of the worker-local telemetry bus.
TELEMETRY_BUFFER = 4096

#: How long a worker waits for the scheduler's reply to a work request (or
#: the welcome) before declaring the connection -- or its host -- dead.
#: Replies are immediate in a healthy system; only the worker's own cell
#: execution is slow, and requests are only sent between leases.
REPLY_TIMEOUT = 30.0


def default_worker_id() -> str:
    # An inproc:// fleet runs a thousand workers in one process, so the
    # random suffix alone must keep ids apart: two workers sharing an id
    # evict each other's connection (and requeue its cells) on every
    # reconnect.  48 bits make a collision among 1000 workers ~2e-9 likely.
    return f"{socket.gethostname()}-{os.getpid()}-{uuid.uuid4().hex[:12]}"


class AsyncWorker:
    """One worker's connect-and-serve state machine (runs on any event loop)."""

    def __init__(
        self,
        address: str,
        *,
        worker_id: Optional[str] = None,
        max_idle: Optional[float] = None,
        reconnect_delay: float = RECONNECT_DELAY,
        once: bool = False,
        log: Optional[Callable[[str], None]] = None,
        reply_timeout: float = REPLY_TIMEOUT,
        inline: bool = False,
        telemetry: Optional[bool] = None,
    ) -> None:
        comm_core.validate_address(address)
        self.address = str(address).strip()
        self.worker_id = worker_id or default_worker_id()
        self.max_idle = max_idle
        self.reconnect_delay = reconnect_delay
        self.once = once
        self.log = log or (lambda message: None)
        self.reply_timeout = reply_timeout
        #: Span capture + forwarding: None follows the scheduler's welcome
        #: advertisement (on iff the scheduler has a bus), False forces off.
        self.telemetry = telemetry
        #: Drain leases inline on the event loop instead of a thread.  Only
        #: sensible for simulated fleets with cheap cells: it skips the
        #: executor hop but blocks the loop for the lease's duration.
        self.inline = inline
        self.cells_executed = 0
        self.cells_cancelled = 0
        self.cells_revoked = 0
        self.events_forwarded = 0
        self._last_useful = time.monotonic()
        # Per-connection state (reset by _serve).  The drain pops the
        # backlog and revoke filters it, both under _backlog_lock.
        self._backlog: Deque[Dict[str, Any]] = deque()
        self._backlog_lock = threading.Lock()
        self._draining = False
        self._cancelled: Set[Tuple[str, int, int]] = set()
        self._fn: Tuple[Optional[str], Optional[Callable[[Cell], CellOutcome]]] = (None, None)
        self._idle_delay: Optional[float] = None
        self._wake: Optional[asyncio.Event] = None
        self._spans = SpanRecorder(None)
        self._telemetry_sub: Optional[Subscription] = None

    # -- outer loop ---------------------------------------------------------

    async def run(self) -> int:
        """Serve campaigns until idle for too long; returns cells executed."""

        while True:
            try:
                comm = await comm_core.connect(self.address)
            except (CommError, OSError):
                if self._idled_out():
                    return self.cells_executed
                await asyncio.sleep(self.reconnect_delay)
                continue
            self._mark_useful()
            try:
                await self._serve(comm)
            except (CommError, OSError, asyncio.TimeoutError):
                pass  # scheduler went away; reconnect (or idle out) below
            finally:
                await comm.close()
            if self.once or self._idled_out():
                return self.cells_executed

    def _idled_out(self) -> bool:
        return (
            self.max_idle is not None
            and time.monotonic() - self._last_useful > self.max_idle
        )

    def _mark_useful(self) -> None:
        self._last_useful = time.monotonic()

    # -- one connection -----------------------------------------------------

    async def _serve(self, comm: Comm) -> None:
        self._backlog = deque()
        self._draining = False
        self._cancelled = set()
        self._fn = (None, None)
        self._idle_delay = None
        self._wake = asyncio.Event()
        self._spans = SpanRecorder(None)
        self._telemetry_sub = None

        await comm.send({"op": "hello", "worker": self.worker_id})
        welcome = await asyncio.wait_for(comm.recv(), timeout=self.reply_timeout)
        if welcome.get("op") != "welcome":
            raise protocol.ProtocolError(f"expected welcome, got {welcome!r}")
        heartbeat_interval = float(welcome.get("heartbeat_interval", 1.0))
        telemetry_on = bool(welcome.get("telemetry")) and self.telemetry is not False
        if telemetry_on:
            # A private local bus: spans land here first, the pump batches
            # them into telemetry frames.  Bounded everywhere -- a burst
            # beyond the buffer drops oldest events, never blocks a cell.
            local_bus = TelemetryBus(history=64, subscriber_buffer=TELEMETRY_BUFFER)
            self._telemetry_sub = local_bus.subscribe()
            self._spans = SpanRecorder(local_bus, worker=self.worker_id)
        self.log(f"worker {self.worker_id} connected to {self.address}")

        reader = asyncio.create_task(self._reader(comm))
        # A dying reader (the scheduler closed the connection, e.g. between
        # two campaigns) must wake a blocked _pull immediately -- otherwise
        # the worker wedges for the full reply timeout on a dead comm, and a
        # max_idle near that timeout makes it exit instead of reconnecting.
        wake = self._wake
        reader.add_done_callback(lambda _task: wake.set())
        beat = asyncio.create_task(self._heartbeat(comm, heartbeat_interval))
        pump: Optional["asyncio.Task"] = None
        if telemetry_on:
            pump = asyncio.create_task(
                self._telemetry_pump(comm, max(heartbeat_interval, 0.1))
            )
        tasks = tuple(task for task in (reader, beat, pump) if task is not None)
        try:
            while True:
                if self._backlog:
                    await self._drain_lease(comm)
                    continue
                idle_started = time.monotonic() if self._spans.enabled else None
                pulled = await self._pull(comm, reader)
                if idle_started is not None:
                    self._spans.record("worker.idle", time.monotonic() - idle_started)
                if not pulled:
                    return  # idled out; bye already sent
        finally:
            for task in tasks:
                task.cancel()
            for task in tasks:
                try:
                    await task
                except (asyncio.CancelledError, CommError, OSError):
                    pass

    async def _pull(self, comm: Comm, reader: "asyncio.Task") -> bool:
        """Request work until the backlog is non-empty; False = disconnect."""

        assert self._wake is not None
        while not self._backlog:
            self._raise_if_dead(reader)
            self._wake.clear()
            if self._backlog:  # arrived between the check and the clear
                return True
            await comm.send({"op": "request"})
            try:
                await asyncio.wait_for(self._wake.wait(), timeout=self.reply_timeout)
            except asyncio.TimeoutError:
                raise protocol.ConnectionClosed(
                    f"scheduler at {self.address} did not answer a work request "
                    f"within {self.reply_timeout:.0f}s"
                ) from None
            self._raise_if_dead(reader)
            if self._backlog:
                return True
            if self._idle_delay is not None:
                delay, self._idle_delay = self._idle_delay, None
                if self._idled_out():
                    await comm.send({"op": "bye", "worker": self.worker_id})
                    return False
                await asyncio.sleep(delay)
        return True

    @staticmethod
    def _raise_if_dead(reader: "asyncio.Task") -> None:
        if reader.done():
            error = reader.exception()
            if error is not None:
                raise error
            raise protocol.ConnectionClosed("scheduler connection reader exited")

    async def _reader(self, comm: Comm) -> None:
        """Dispatch every inbound frame: replies and pushes alike."""

        assert self._wake is not None
        while True:
            message = await comm.recv()
            op = message.get("op")
            if op == "task":
                campaign = str(message.get("campaign"))
                if "fn" in message:
                    self._fn = (campaign, protocol.decode_payload(str(message["fn"])))
                entries = [message] + list(message.get("extra") or [])
                with self._backlog_lock:
                    self._backlog.extend(
                        {
                            "campaign": campaign,
                            "index": int(entry.get("index", -1)),
                            "attempt": int(entry.get("attempt", 0)),
                            "cell": entry.get("cell"),
                        }
                        for entry in entries
                    )
                self._wake.set()
            elif op == "idle":
                self._idle_delay = float(message.get("delay", 0.05))
                self._wake.set()
            elif op == "revoke":
                await comm.send(self._revoke(message))
            elif op == "cancel":
                self._cancelled.add(
                    (
                        str(message.get("campaign")),
                        int(message.get("index", -1)),
                        int(message.get("attempt", 0)),
                    )
                )
            else:
                raise protocol.ProtocolError(f"unexpected op {op!r} from scheduler")

    def _revoke(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Drop the revoked entries not yet popped; build the confirmation."""

        campaign = str(message.get("campaign"))
        requested = [int(index) for index in (message.get("indices") or [])]
        drop = set(requested)
        removed: Set[int] = set()
        with self._backlog_lock:  # the drain cannot pop meanwhile
            kept_backlog = []
            for entry in self._backlog:
                if entry["campaign"] == campaign and entry["index"] in drop:
                    removed.add(entry["index"])
                else:
                    kept_backlog.append(entry)
            self._backlog.clear()
            self._backlog.extend(kept_backlog)
        self.cells_revoked += len(removed)
        # Confirm what was actually still queued; anything already started
        # (or finished) stays this worker's.
        return {
            "op": "revoked",
            "worker": self.worker_id,
            "campaign": campaign,
            "indices": sorted(removed),
            "kept": [i for i in requested if i not in removed],
        }

    async def _heartbeat(self, comm: Comm, interval: float) -> None:
        try:
            while True:
                await asyncio.sleep(interval)
                await comm.send({"op": "heartbeat", "worker": self.worker_id})
        except (CommError, OSError):
            return  # main loop will observe the dead comm itself

    # -- telemetry forwarding ------------------------------------------------

    async def _telemetry_pump(self, comm: Comm, interval: float) -> None:
        """Periodically relay locally-buffered telemetry to the scheduler.

        The drain loop forwards right before each result frame, so per-cell
        spans always reach the scheduler before the campaign can complete;
        this task covers idle periods and the long tail, and stays quiet
        while a drain runs so the frames keep their order.  On cancellation
        (connection teardown) it attempts one final drain.
        """

        try:
            while True:
                await asyncio.sleep(interval)
                if not self._draining:
                    await self._forward_telemetry(comm)
        except asyncio.CancelledError:
            try:
                await self._forward_telemetry(comm)
            except (CommError, OSError):
                pass
            raise
        except (CommError, OSError):
            return  # main loop will observe the dead comm itself

    async def _forward_telemetry(self, comm: Comm) -> None:
        """Send one bounded ``telemetry`` frame if any events are queued."""

        frame = self._telemetry_frame()
        if frame is not None:
            await comm.send(frame)

    def _telemetry_frame(self) -> Optional[Dict[str, Any]]:
        subscription = self._telemetry_sub
        if subscription is None:
            return None
        events = subscription.poll(TELEMETRY_BATCH)
        if not events:
            return None
        self.events_forwarded += len(events)
        return {
            "op": "telemetry",
            "worker": self.worker_id,
            "events": [event.as_dict() for event in events],
            "dropped": subscription.dropped,
        }

    # -- cell execution -----------------------------------------------------

    async def _drain_lease(self, comm: Comm) -> None:
        """Run the whole backlog in one thread hop (or inline)."""

        backlog = self._backlog
        self._draining = True
        try:
            if self.inline:
                self._drain(comm, backlog)
            else:
                await asyncio.get_running_loop().run_in_executor(
                    None, self._drain, comm, backlog
                )
        finally:
            self._draining = False

    def _drain(self, comm: Comm, backlog: Deque[Dict[str, Any]]) -> None:
        """Execute ``backlog`` entry by entry, streaming each result.

        Bound to one connection: once ``comm`` is closed it stops at the
        next cell, leaving the rest of the backlog untouched.
        """

        cancelled = self._cancelled
        spans = self._spans
        while True:
            with self._backlog_lock:
                if not backlog:
                    return
                if comm.closed:
                    raise protocol.ConnectionClosed("connection closed mid-lease")
                item = backlog.popleft()
            campaign = item["campaign"]
            key = (campaign, item["index"], item["attempt"])
            if key in cancelled:
                self._discard(comm, item)
                continue
            with spans.span("cell.deserialize", campaign=campaign, index=item["index"]):
                cell: Cell = protocol.decode_payload(str(item["cell"]))
            fn_campaign, fn = self._fn
            if fn_campaign != campaign or fn is None:
                raise protocol.ProtocolError(
                    f"task for campaign {campaign} arrived without a cell function"
                )
            with spans.span("cell.execute", campaign=campaign, index=item["index"]):
                outcome = self._call(fn, cell)
            self.cells_executed += 1
            self._mark_useful()
            if key in cancelled:
                # The speculative race was lost while the cell executed; the
                # result is settled elsewhere and not worth sending.
                self._discard(comm, item)
                continue
            with spans.span("cell.serialize", campaign=campaign, index=item["index"]):
                encoded = protocol.encode_payload(outcome)
            # Telemetry first: the frames are ordered, so this cell's spans are
            # already scheduler-side when the result lands (a campaign can tear
            # the scheduler down the instant its last result arrives).
            frame = self._telemetry_frame()
            if frame is not None:
                comm.send_sync(frame)
            comm.send_sync(
                {
                    "op": "result",
                    "worker": self.worker_id,
                    "campaign": campaign,
                    "index": item["index"],
                    "attempt": item["attempt"],
                    "outcome": encoded,
                }
            )

    def _discard(self, comm: Comm, item: Dict[str, Any]) -> None:
        """Answer a cancelled entry with ``discarded`` instead of a result."""

        self._cancelled.discard((item["campaign"], item["index"], item["attempt"]))
        self.cells_cancelled += 1
        comm.send_sync(
            {
                "op": "discarded",
                "worker": self.worker_id,
                "campaign": item["campaign"],
                "index": item["index"],
                "attempt": item["attempt"],
            }
        )

    @staticmethod
    def _call(fn: Callable[[Cell], CellOutcome], cell: Cell) -> CellOutcome:
        try:
            return fn(cell)
        except (KeyboardInterrupt, SystemExit):
            # Deliberately propagate: the connection drops and the
            # scheduler's worker-loss path retries the cell elsewhere --
            # Ctrl-C on one worker must cost a retry, never poison the
            # campaign with a fake cell failure.
            raise
        except Exception as error:
            import traceback

            return CellOutcome(
                cell=cell,
                error=traceback.format_exc(),
                error_type=type(error).__name__,
            )


class Worker:
    """The synchronous facade: one worker process' connect-and-serve loop."""

    def __init__(
        self,
        address: str,
        *,
        worker_id: Optional[str] = None,
        max_idle: Optional[float] = None,
        reconnect_delay: float = RECONNECT_DELAY,
        once: bool = False,
        log: Optional[Callable[[str], None]] = None,
        telemetry: Optional[bool] = None,
    ) -> None:
        self._worker = AsyncWorker(
            address,
            worker_id=worker_id,
            max_idle=max_idle,
            reconnect_delay=reconnect_delay,
            once=once,
            log=log,
            telemetry=telemetry,
        )
        self.address = self._worker.address
        self.worker_id = self._worker.worker_id

    @property
    def cells_executed(self) -> int:
        return self._worker.cells_executed

    def run(self) -> int:
        """Serve campaigns until idle for too long; returns cells executed."""

        return asyncio.run(self._worker.run())


def run_worker(
    address: str,
    *,
    worker_id: Optional[str] = None,
    max_idle: Optional[float] = None,
    once: bool = False,
    log: Optional[Callable[[str], None]] = None,
    telemetry: Optional[bool] = None,
) -> int:
    """Module-level entry point (picklable as a ``multiprocessing`` target)."""

    return Worker(
        address,
        worker_id=worker_id,
        max_idle=max_idle,
        once=once,
        log=log,
        telemetry=telemetry,
    ).run()
