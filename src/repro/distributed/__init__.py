"""Distributed campaign runner: an asyncio scheduler over two comm transports.

This package is the sweep engine's one parallel path, from a forked
fleet on one host (``REPRO_JOBS=N``) to workers across a cluster.  A
central :class:`~repro.distributed.scheduler.Scheduler` -- a single-event-
loop asyncio state machine -- owns the cell queue of one *campaign* (a
sweep routed through the harness) and serves it to any number of
:class:`~repro.distributed.worker.AsyncWorker` s, which register,
heartbeat, pull cells and stream outcomes back.  The messages are
length-prefixed JSON frames (:mod:`repro.distributed.protocol`) carried
over the comm layer (:mod:`repro.distributed.comm`), whose fixed table
holds two transports: ``tcp://`` sockets for real fleets on one host or
across a cluster, ``inproc://`` channels for socketless in-process fleets
-- a thousand simulated workers in one process.

Scheduling has one policy: pull-based guided leases (each reply carries
an equal share of what is queued; the worker drains it in one hop),
corrected by two-phase **work stealing**, which is always on (idle workers
take back the queued, never-started tail of loaded workers' leases), so a
cell has at most one live attempt at a time.  Results are keyed by position and every cell carries its own
deterministic seed, so scheduling changes the wall clock, never the rows.
Fault tolerance is retry-based (a dead worker's lease is requeued, and the
cell it was running is charged against a bounded budget).  The runtime's
timings -- heartbeat interval and eviction timeout, retry budget, stall
guard -- are the constants of :mod:`repro.distributed.scheduler`: no
result depends on them, so no option sets them.  Resuming a
killed campaign is not this package's job: the harness' cell cache
(``REPRO_CACHE_DIR``) replays completed cells on every executor alike.

The public entry points:

* :class:`~repro.distributed.executor.DistributedExecutor` plugs the
  runtime into the ordinary ``Executor`` interface, so any sweep, scenario
  or benchmark runs in parallel unchanged and bit-identically (selected by
  ``REPRO_JOBS=N`` for a local forked fleet, ``REPRO_JOBS=tcp://host:port``,
  ``REPRO_JOBS=inproc://``, or explicitly);
* ``python -m repro.scenarios run --executor tcp://...|inproc://...
  [--workers N]`` drives it from the command line, and
  ``python -m repro.distributed worker ADDRESS`` serves its campaigns from
  another process or host (see :mod:`repro.distributed.cli`).
"""

from repro.distributed.comm import (
    Comm,
    CommClosedError,
    CommError,
    Listener,
    UnknownSchemeError,
)
from repro.distributed.executor import DistributedExecutor
from repro.distributed.protocol import (
    ConnectionClosed,
    ProtocolError,
    format_address,
    parse_address,
)
from repro.distributed.scheduler import CampaignStalled, Scheduler, SchedulerStats
from repro.distributed.worker import AsyncWorker, run_worker

__all__ = [
    "AsyncWorker",
    "CampaignStalled",
    "Comm",
    "CommClosedError",
    "CommError",
    "ConnectionClosed",
    "DistributedExecutor",
    "Listener",
    "ProtocolError",
    "Scheduler",
    "SchedulerStats",
    "UnknownSchemeError",
    "format_address",
    "parse_address",
    "run_worker",
]
