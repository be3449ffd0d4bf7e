"""Distributed campaign runner: an asyncio scheduler over pluggable comms.

This package is the sweep engine's one parallel path, from a forked
fleet on one host (``REPRO_JOBS=N``) to workers across a cluster.  A
central :class:`~repro.distributed.scheduler.Scheduler` -- a single-event-
loop asyncio state machine -- owns the cell queue of one *campaign* (a
sweep routed through the harness) and serves it to any number of
:class:`~repro.distributed.worker.Worker` s, which register, heartbeat,
pull cells and stream outcomes back.  The messages are length-prefixed JSON
frames (:mod:`repro.distributed.protocol`) carried over a pluggable comm
layer (:mod:`repro.distributed.comm`): ``tcp://`` sockets for real fleets
on one host or across a cluster, ``inproc://`` channels for socketless
in-process fleets -- a thousand simulated workers in one process.

Scheduling has one policy: pull-based guided leases (each reply carries
an equal share of what is queued; the worker drains it in one hop),
corrected by two-phase **work stealing**, which is always on (idle workers
take back the queued, never-started tail of loaded workers' leases), so a
cell has at most one live attempt at a time.  Results are keyed by position and every cell carries its own
deterministic seed, so scheduling changes the wall clock, never the rows.
Fault tolerance is retry-based (a dead worker's lease is requeued, and the
cell it was running is charged against a bounded budget) and campaigns are
resumable through an append-only JSONL journal
(:class:`~repro.distributed.campaign.CampaignJournal`).

The public entry points:

* :class:`~repro.distributed.executor.DistributedExecutor` plugs the
  runtime into the ordinary ``Executor`` interface, so any sweep, scenario
  or benchmark runs in parallel unchanged and bit-identically (selected by
  ``REPRO_JOBS=N`` for a local forked fleet, ``REPRO_JOBS=tcp://host:port``,
  ``REPRO_JOBS=inproc://``, or explicitly);
* ``python -m repro.distributed`` drives it from the command line
  (``scheduler`` / ``worker`` / ``run`` -- see :mod:`repro.distributed.cli`).
"""

from repro.distributed.campaign import CampaignJournal
from repro.distributed.comm import (
    Backend,
    Comm,
    CommClosedError,
    CommError,
    Listener,
    UnknownSchemeError,
    register_backend,
    registered_schemes,
)
from repro.distributed.executor import DistributedExecutor
from repro.distributed.protocol import (
    ConnectionClosed,
    ProtocolError,
    format_address,
    parse_address,
)
from repro.distributed.scheduler import CampaignStalled, Scheduler, SchedulerStats
from repro.distributed.worker import AsyncWorker, Worker, run_worker

__all__ = [
    "AsyncWorker",
    "Backend",
    "CampaignJournal",
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
    "Worker",
    "format_address",
    "parse_address",
    "register_backend",
    "registered_schemes",
    "run_worker",
]
