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

Each ``map`` call runs one campaign: start a
:class:`~repro.distributed.scheduler.Scheduler` (its one policy: guided
leases of ``ceil(pending / connected workers)`` cells per reply, drained by
the worker in one thread hop, with work stealing always on), register the
campaign, then raise the local fleet -- forked processes for ``tcp://``,
event-loop coroutines for ``inproc://``, both babysat by one loop so a dead
worker costs a retry of the cell it was running, not the sweep -- stream
the ordered outcomes, then tear everything down.  The campaign exists
before any worker asks, so no first request is answered ``idle``.  After
each campaign the scheduler's counters are published on :attr:`last_stats`
(and accumulated on :attr:`stats`) so callers and the CLI can report steals
and retries.

The executor keeps no record of finished cells: a killed campaign resumes
through the harness' cell cache (``REPRO_CACHE_DIR``), which replays
completed cells before the rest reach :meth:`map` -- the same way on every
executor.
"""

from __future__ import annotations

import multiprocessing
import threading
from functools import partial
from typing import Callable, Generator, Iterator, List, Optional, Sequence, Union

from repro.distributed.comm import core as comm_core
from repro.distributed.scheduler import Scheduler, SchedulerStats
from repro.distributed.worker import run_worker
from repro.experiments.executors import Executor
from repro.experiments.grid import Cell, CellOutcome
from repro.telemetry import TelemetryBus

#: Spawned local workers that die are replaced, but never more than this
#: many times per original slot -- a crash-looping cell function must hit
#: the per-cell retry budget, not fork-bomb the host.
MAX_RESPAWNS_PER_WORKER = 8

#: How long a self-spawned worker lingers without work before exiting.
WORKER_MAX_IDLE = 30.0


class DistributedExecutor(Executor):
    """Run cells on comm-connected workers behind a campaign scheduler.

    Parameters
    ----------
    address:
        Comm address the per-campaign scheduler binds: ``tcp://host:port``
        (port 0 = ephemeral) for socket fleets, ``inproc://name`` (empty
        name = fresh token) for an in-process fleet.  The default picks an
        ephemeral loopback port (self-contained mini-cluster).
    workers:
        Local workers to self-spawn per campaign -- processes for
        ``tcp://``, event-loop coroutines for ``inproc://``.  ``0`` spawns
        none and relies on external workers connecting to ``address``.
        Processes are forked where the platform offers ``fork``: forked
        workers inherit the parent's modules, so cell functions defined in
        non-importable modules (pytest-loaded test and benchmark files)
        stay picklable by reference.  Elsewhere the platform's default
        start method is used and cell functions must live in importable
        modules.
    telemetry:
        Where each campaign scheduler publishes its events: ``None``
        (default) uses the process-wide :func:`repro.telemetry.get_bus`,
        a :class:`~repro.telemetry.TelemetryBus` targets that bus,
        ``False`` disables publishing.  Observation only -- rows are
        bit-identical either way.

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
        #: Counters of the most recently finished campaign, and their
        #: accumulation across every campaign this executor ran.
        self.last_stats: Optional[SchedulerStats] = None
        self.stats = SchedulerStats()
        #: The live scheduler / spawned worker processes of the campaign
        #: currently streaming through :meth:`map` (exposed for tests and
        #: fault-injection: killing ``processes[i]`` exercises the retry
        #: path of a real worker loss).
        self.scheduler: Optional[Scheduler] = None
        self.processes: List[multiprocessing.process.BaseProcess] = []
        self._local_workers: List[object] = []  # futures of inproc coroutines

    def __repr__(self) -> str:
        return f"DistributedExecutor(address={self.address!r}, workers={self.workers})"

    def map(
        self,
        fn: Callable[[Cell], CellOutcome],
        cells: Sequence[Cell],
    ) -> Iterator[CellOutcome]:
        cells = list(cells)

        def stream() -> Iterator[CellOutcome]:
            if not cells:
                return
            scheduler = Scheduler(self.address, telemetry=self.telemetry)
            scheduler.start()
            self.scheduler = scheduler
            stop = threading.Event()
            babysitter: Optional[threading.Thread] = None
            outcomes: Optional[Generator[CellOutcome, None, None]] = None
            try:
                # Registered before the fleet: a worker's first request
                # finds work instead of an idle reply and its sleep.
                outcomes = scheduler.run_campaign(fn, cells)  # type: ignore[assignment]
                if self.workers:
                    count = min(self.workers, len(cells))
                    if self.scheme == "inproc":
                        spawn = partial(scheduler.spawn_local_worker, max_idle=WORKER_MAX_IDLE)
                        alive = lambda future: not future.done()
                        handles = self._local_workers = [spawn() for _ in range(count)]
                    else:
                        spawn = partial(self._spawn, self._context(), scheduler.address)
                        alive = lambda process: process.is_alive()
                        handles = self.processes = [spawn() for _ in range(count)]
                    babysitter = threading.Thread(
                        target=self._babysit,
                        args=(handles, alive, spawn, stop),
                        name="repro-distributed-babysitter",
                        daemon=True,
                    )
                    babysitter.start()
                yield from outcomes
            finally:
                if outcomes is not None:
                    outcomes.close()
                stop.set()
                if babysitter is not None:
                    babysitter.join(timeout=2.0)
                self.last_stats = scheduler.stats
                self.stats.add(scheduler.stats)
                for future in self._local_workers:
                    future.cancel()  # type: ignore[attr-defined]
                self._local_workers = []
                scheduler.close()
                for process in self.processes:
                    process.terminate()
                for process in self.processes:
                    process.join(timeout=2.0)
                self.processes = []
                self.scheduler = None

        return stream()

    # -- local fleet: forked processes (tcp://) or coroutines (inproc://) ---

    @staticmethod
    def _context() -> multiprocessing.context.BaseContext:
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        return multiprocessing.get_context(method)

    @staticmethod
    def _spawn(
        context: multiprocessing.context.BaseContext, address: str
    ) -> multiprocessing.process.BaseProcess:
        process = context.Process(
            target=run_worker,
            args=(address,),
            kwargs={"max_idle": WORKER_MAX_IDLE},
            daemon=True,
        )
        process.start()
        return process

    @staticmethod
    def _babysit(
        handles: List[object],
        alive: Callable[[object], bool],
        spawn: Callable[[], object],
        stop: threading.Event,
    ) -> None:
        """Replace dead local workers in ``handles`` while the campaign runs.

        ``handles`` is the executor's own fleet list (``processes`` or the
        in-process futures), replaced slot by slot, so a test that kills
        ``processes[i]`` sees its replacement in the same list.
        """

        budget = MAX_RESPAWNS_PER_WORKER * max(len(handles), 1)
        while not stop.wait(0.1):
            for slot, handle in enumerate(handles):
                if stop.is_set() or budget <= 0:
                    return
                if not alive(handle):
                    try:
                        handles[slot] = spawn()
                    except RuntimeError:
                        return  # scheduler shut down under us
                    budget -= 1
