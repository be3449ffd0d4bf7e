"""Distributed campaign runner: an asyncio scheduler over pluggable comms.

The single-host sweep engine (``REPRO_JOBS=N`` process pools) tops out at
one machine; this package is the execution layer that outgrows it.  A
central :class:`~repro.distributed.scheduler.Scheduler` -- a single-event-
loop asyncio state machine -- owns the cell queue of one *campaign* (a
sweep routed through the harness) and serves it to any number of
:class:`~repro.distributed.worker.Worker` s, which register, heartbeat,
pull cells and stream outcomes back.  The messages are length-prefixed JSON
frames (:mod:`repro.distributed.protocol`) carried over a pluggable comm
layer (:mod:`repro.distributed.comm`): ``tcp://`` sockets for real fleets
on one host or across a cluster, ``inproc://`` channels for socketless
in-process fleets -- a thousand simulated workers in one process.

Scheduling is pull-based with guided leases (each reply carries an equal
share of what is queued; the worker drains it in one hop), plus **work
stealing** (idle
workers steal the queued tail of loaded workers' leases) and **speculative
re-execution** (straggler cells are duplicated onto idle workers; the first
result wins and the losers are cancelled).  Both ride on the runtime's
duplicate-result idempotence -- results are keyed by position and every
cell carries its own deterministic seed -- so they change the wall clock,
never the rows.  Fault tolerance is retry-based (a dead worker's lease is
requeued, and the cell it was running is charged against a bounded budget) and campaigns are resumable
through an append-only JSONL journal
(:class:`~repro.distributed.campaign.CampaignJournal`).

The public entry points:

* :class:`~repro.distributed.executor.DistributedExecutor` plugs the
  runtime into the ordinary ``Executor`` interface, so any sweep, scenario
  or benchmark runs distributed unchanged and bit-identically (selected by
  ``REPRO_JOBS=tcp://host:port``, ``REPRO_JOBS=inproc://``,
  ``executor="distributed"``, or explicitly);
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
from repro.distributed.executor import (
    DistributedExecutor,
    executor_from_address,
    inproc_fleet,
    local_mini_cluster,
)
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
    "executor_from_address",
    "format_address",
    "inproc_fleet",
    "local_mini_cluster",
    "parse_address",
    "register_backend",
    "registered_schemes",
    "run_worker",
]
