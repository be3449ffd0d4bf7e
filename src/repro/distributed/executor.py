"""``DistributedExecutor``: the distributed runtime behind the ``Executor`` interface.

This is the piece that lets every existing sweep, scenario and benchmark
run in parallel *unchanged*: :func:`repro.experiments.harness.run_experiment`
hands the executor an ordered cell list and a picklable cell function, and
gets outcomes streamed back in submission order -- exactly the contract the
serial backend satisfies, so distributed rows are bit-identical to
:class:`~repro.experiments.executors.SerialExecutor` rows.

The executor is comm-backend agnostic (see :mod:`repro.distributed.comm`);
selection goes through :func:`repro.experiments.executors.resolve_executor`:

* ``REPRO_JOBS=N`` / ``executor=N`` (``N > 1``; ``auto`` or ``0`` for one
  per CPU) -- bind an ephemeral loopback port and fork a local fleet of
  ``N`` worker processes;
* ``REPRO_JOBS=tcp://host:port`` / ``executor="tcp://host:port"`` -- bind
  the scheduler at that address and wait for externally started workers
  (``python -m repro.distributed worker tcp://host:port``);
* ``REPRO_JOBS=inproc://`` / ``executor="inproc://..."`` -- no sockets, no
  processes: the scheduler and a fleet of coroutine workers share one event
  loop in this process.  Same scheduler, same wire frames (round-tripped
  through the frame codec), same ordered bit-identical rows -- which is what
  makes it an honest backend for tests that want a thousand workers.

On the command line the same forms are ``python -m repro.scenarios run
--executor SPEC``; ``--workers N`` next to a ``tcp://`` or ``inproc://``
address builds ``DistributedExecutor(address, workers=N)`` directly.

The executor raises its machinery once and keeps it: the first ``map``
starts a :class:`~repro.distributed.scheduler.Scheduler` (its one policy:
guided leases of ``ceil(pending / connected workers)`` cells per reply,
drained by the worker in one thread hop, with work stealing always on),
registers the campaign, then raises the local fleet -- forked processes for
``tcp://``, event-loop coroutines for ``inproc://`` -- and one babysitter
thread, so a dead worker costs a retry of the cell it was running, not the
sweep.  Every later ``map`` registers one more campaign on that same
scheduler and fleet; workers waiting between two campaigns are parked by
the scheduler and handed the new campaign the moment it registers.
:meth:`close` (or leaving a ``with`` block) tears it all down; an executor
dropped without it is closed when it is garbage-collected or at interpreter
exit.  A forked fleet forks at the first ``map``, so a cell function must
come from a module loaded by then or be importable by name.

One campaign streams at a time: a second ``map`` before the first stream
is exhausted or closed raises :class:`RuntimeError`.  After each campaign
its own scheduler counters are published on :attr:`last_stats` (and
accumulated on :attr:`stats`) so callers and the CLI can report steals and
retries.

The executor keeps no record of finished cells: a killed campaign resumes
through the harness' cell cache (``REPRO_CACHE_DIR``), which replays
completed cells before the rest reach :meth:`map` -- the same way on every
executor.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import weakref
from typing import Callable, Iterator, List, Optional, Sequence, Union

from repro.distributed.comm import core as comm_core
from repro.distributed.scheduler import Scheduler, SchedulerStats
from repro.distributed.worker import run_worker
from repro.experiments.executors import Executor
from repro.experiments.grid import Cell, CellOutcome
from repro.telemetry import TelemetryBus

#: Local workers that crash while a campaign runs are replaced, but never
#: more than this many times per slot over the executor's life -- a
#: crash-looping cell function must hit the per-cell retry budget, not
#: fork-bomb the host.
MAX_RESPAWNS_PER_WORKER = 8

#: How long a self-spawned worker lingers without work before exiting.  A
#: worker that idled out is replaced free of charge at the next ``map``.
WORKER_MAX_IDLE = 30.0


class DistributedExecutor(Executor):
    """Run cells on comm-connected workers behind one long-lived scheduler.

    Parameters
    ----------
    address:
        Comm address the scheduler binds: ``tcp://host:port`` (port 0 =
        ephemeral) for socket fleets, ``inproc://name`` (empty name = fresh
        token) for an in-process fleet.  The default picks an ephemeral
        loopback port (self-contained mini-cluster).
    workers:
        Local workers to keep -- processes for ``tcp://``, event-loop
        coroutines for ``inproc://``.  ``0`` spawns none and relies on
        external workers connecting to ``address``.  Processes are forked
        where the platform offers ``fork``: forked workers inherit the
        parent's modules, so cell functions defined in non-importable
        modules (pytest-loaded test and benchmark files) stay picklable by
        reference -- as long as they were loaded before the first ``map``.
        Elsewhere the platform's default start method is used and cell
        functions must live in importable modules.
    telemetry:
        Where the scheduler publishes its events: ``None`` (default) uses
        the process-wide :func:`repro.telemetry.get_bus`, a
        :class:`~repro.telemetry.TelemetryBus` targets that bus, ``False``
        disables publishing.  Workers capture and forward their spans only
        for campaigns registered while that bus is observed.  Observation
        only -- rows are bit-identical either way.

    The heartbeat, retry-budget and stall timings are the constants of
    :mod:`repro.distributed.scheduler`; no campaign's rows depend on them.
    """

    name = "distributed"

    def __init__(
        self,
        address: str = "tcp://127.0.0.1:0",
        *,
        workers: int = 0,
        telemetry: Union[None, bool, TelemetryBus] = None,
    ) -> None:
        comm_core.validate_address(address)  # fail early, with the friendly message
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.address = address
        self.scheme = comm_core.split_address(address)[0]
        self.workers = workers
        self.telemetry = telemetry
        #: Counters of the most recently finished campaign -- everything
        #: the scheduler counted since the previous campaign ended, so a
        #: worker joining between two campaigns counts toward the next --
        #: and their accumulation across every campaign this executor ran.
        self.last_stats: Optional[SchedulerStats] = None
        self.stats = SchedulerStats()
        #: The scheduler while a campaign streams through :meth:`map`, and
        #: the spawned worker processes of the fleet (exposed for tests and
        #: fault-injection: killing ``processes[i]`` exercises the retry
        #: path of a real worker loss).
        self.scheduler: Optional[Scheduler] = None
        self.processes: List[multiprocessing.process.BaseProcess] = []
        self._fleet: Optional[_Fleet] = None
        self._close_fleet: Optional[weakref.finalize] = None
        self._streaming = False
        self._baseline = SchedulerStats()

    def __repr__(self) -> str:
        return f"DistributedExecutor(address={self.address!r}, workers={self.workers})"

    def map(
        self,
        fn: Callable[[Cell], CellOutcome],
        cells: Sequence[Cell],
    ) -> Iterator[CellOutcome]:
        """Register one campaign of ``fn`` over ``cells``; stream its outcomes.

        The campaign is registered (and, on the first call, the scheduler
        and fleet raised) before this returns.
        """

        cells = list(cells)
        if not cells:
            return iter(())
        if self._streaming:
            raise RuntimeError(
                "a campaign is still streaming on this executor; exhaust or "
                "close its stream before the next map"
            )
        stream = self._stream(fn, cells)
        next(stream)  # register, inside the stream's try/finally
        return stream

    def _stream(
        self, fn: Callable[[Cell], CellOutcome], cells: List[Cell]
    ) -> Iterator[CellOutcome]:
        fleet = self._open()
        scheduler = fleet.scheduler
        self._streaming = True
        outcomes: Optional[Iterator[CellOutcome]] = None
        try:
            # Registered before the fleet is raised or topped up: a worker's
            # first request finds work instead of being parked.
            outcomes = scheduler.run_campaign(fn, cells)
            fleet.campaign_started()
            self.scheduler = scheduler
            yield None  # type: ignore[misc]  # consumed by map
            yield from outcomes
        finally:
            if outcomes is not None:
                outcomes.close()  # type: ignore[attr-defined]
            fleet.campaign_ended()
            self.scheduler = None
            self._streaming = False
            with scheduler._lock:
                totals = SchedulerStats(**scheduler.stats.counters())
            self.last_stats = totals.since(self._baseline)
            self._baseline = totals
            self.stats.add(self.last_stats)

    def _open(self) -> "_Fleet":
        if self._fleet is None:
            fleet = _Fleet(self.address, self.scheme, self.workers, self.telemetry)
            self._fleet = fleet
            self._baseline = SchedulerStats()
            if self.scheme != "inproc":
                self.processes = fleet.handles  # type: ignore[assignment]
            # Closes the fleet when this executor is collected or the
            # interpreter exits, whichever comes first.
            self._close_fleet = weakref.finalize(self, fleet.close)
        return self._fleet

    def close(self) -> None:
        """Stop the fleet and the scheduler; the next ``map`` raises new ones."""

        if self._close_fleet is not None:
            self._close_fleet()
        self._close_fleet = None
        self._fleet = None
        self.processes = []


class _Fleet:
    """The scheduler, local workers and babysitter one executor keeps.

    Holds no reference to its executor, so the executor's finalizer can
    close it.
    """

    def __init__(
        self,
        address: str,
        scheme: str,
        size: int,
        telemetry: Union[None, bool, TelemetryBus],
    ) -> None:
        self.scheduler = Scheduler(address, telemetry=telemetry).start()
        self.size = size
        self.inproc = scheme == "inproc"
        #: One slot per local worker, replaced in place, so a test that
        #: kills ``processes[i]`` sees its replacement in the same list.
        self.handles: List[object] = []
        self.respawns_left = MAX_RESPAWNS_PER_WORKER * max(size, 1)
        self._pid = os.getpid()
        self._slots = threading.Lock()
        self._active = threading.Event()
        self._closed = threading.Event()
        self._babysitter: Optional[threading.Thread] = None

    def _spawn(self) -> object:
        if self.inproc:
            return self.scheduler.spawn_local_worker(max_idle=WORKER_MAX_IDLE)
        process = _context().Process(
            target=run_worker,
            args=(self.scheduler.address,),
            kwargs={"max_idle": WORKER_MAX_IDLE},
            daemon=True,
        )
        process.start()
        return process

    def _alive(self, handle: object) -> bool:
        if self.inproc:
            return not handle.done()  # type: ignore[attr-defined]
        return handle.is_alive()  # type: ignore[attr-defined]

    def _crashed(self, handle: object) -> bool:
        """True for a worker that died; False for one that idled out."""

        if self.inproc:
            return handle.cancelled() or handle.exception() is not None  # type: ignore[attr-defined]
        return handle.exitcode != 0  # type: ignore[attr-defined]

    def campaign_started(self) -> None:
        """Bring the fleet to full size, free of charge, and watch it."""

        if not self.size:
            return
        with self._slots:
            for slot, handle in enumerate(self.handles):
                if not self._alive(handle):
                    self.handles[slot] = self._spawn()
            while len(self.handles) < self.size:
                self.handles.append(self._spawn())
        if self._babysitter is None:
            self._babysitter = threading.Thread(
                target=self._babysit, name="repro-distributed-babysitter", daemon=True
            )
            self._babysitter.start()
        self._active.set()

    def campaign_ended(self) -> None:
        self._active.clear()

    def _babysit(self) -> None:
        """Replace dead workers while a campaign runs; sleep between campaigns.

        A crash spends the respawn budget; a worker that idled out (parked
        past ``max_idle``) is replaced free.
        """

        while True:
            self._active.wait()
            if self._closed.wait(0.1):
                return
            if not self._active.is_set():
                continue
            with self._slots:
                for slot, handle in enumerate(self.handles):
                    if self._alive(handle):
                        continue
                    if self._crashed(handle):
                        if self.respawns_left <= 0:
                            continue
                        self.respawns_left -= 1
                    try:
                        self.handles[slot] = self._spawn()
                    except RuntimeError:
                        return  # scheduler shut down under us

    def close(self) -> None:
        if os.getpid() != self._pid:
            return  # a forked worker inherited this object; not its fleet
        self._closed.set()
        self._active.set()  # wake the babysitter so it sees the close
        if self._babysitter is not None:
            self._babysitter.join(timeout=2.0)
        with self._slots:
            handles = list(self.handles)
        if self.inproc:
            for future in handles:
                future.cancel()  # type: ignore[attr-defined]
        self.scheduler.close()
        if not self.inproc:
            for process in handles:
                process.terminate()  # type: ignore[attr-defined]
            for process in handles:
                process.join(timeout=2.0)  # type: ignore[attr-defined]


def _context() -> multiprocessing.context.BaseContext:
    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    return multiprocessing.get_context(method)
