"""Topic names and versioned payload construction for the telemetry bus.

Every payload published on the bus is a flat, JSON-safe ``dict`` carrying a
``schema_version`` and a ``kind``; consumers (dashboard endpoints, the store,
tests) dispatch on ``kind`` and may reject versions they do not understand.
Bumping :data:`SCHEMA_VERSION` is an API change: document it in CHANGES.md
and keep the dashboard able to render the previous version.
"""

from __future__ import annotations

from typing import Any, Dict

#: Version stamped into every event payload and every bus snapshot.
SCHEMA_VERSION = 1

# -- topics -----------------------------------------------------------------
#: Sweep-harness cell lifecycle (sweep-start/cell-start/cell-row/cell-error/
#: sweep-end), published by :func:`repro.experiments.harness.run_experiment`.
TOPIC_SWEEP = "sweep"
#: Campaign lifecycle of the distributed scheduler (campaign-start/-end).
TOPIC_SCHEDULER = "scheduler"
#: Worker membership: worker-joined / worker-evicted / worker-left.
TOPIC_WORKERS = "scheduler.workers"
#: Cell assignments, steals, results and late duplicate results.
TOPIC_ASSIGNMENTS = "scheduler.assignments"
#: Compact queue-depth samples (pending/running/done) for timelines.
TOPIC_QUEUE = "scheduler.queue"
#: Full :meth:`SchedulerStats.to_payload` snapshots.
TOPIC_STATS = "scheduler.stats"
#: Simulator trace events forwarded through the trace tap.
TOPIC_TRACE = "trace"
#: Scheduling-runtime run lifecycle (run-start / run-end).
TOPIC_RUNTIME = "runtime"
#: Monotonic-clock span / counter / histogram samples from the sweep harness
#: and (locally, before forwarding) from distributed workers.
TOPIC_SPANS = "spans"
#: Scheduler event-loop spans: assign latency, steal round-trips, loop lag.
TOPIC_SCHEDULER_SPANS = "scheduler.spans"

#: Prefix under which the scheduler re-publishes events forwarded by a
#: worker: ``worker.<worker_id>.<original topic>``.
WORKER_TOPIC_PREFIX = "worker."

ALL_TOPICS = (
    TOPIC_SWEEP,
    TOPIC_SCHEDULER,
    TOPIC_WORKERS,
    TOPIC_ASSIGNMENTS,
    TOPIC_QUEUE,
    TOPIC_STATS,
    TOPIC_TRACE,
    TOPIC_RUNTIME,
    TOPIC_SPANS,
    TOPIC_SCHEDULER_SPANS,
)


def worker_topic(worker_id: str, topic: str) -> str:
    """The scheduler-side topic for ``topic`` forwarded by ``worker_id``."""

    return f"{WORKER_TOPIC_PREFIX}{worker_id}.{topic}"


def payload(kind: str, **fields: Any) -> Dict[str, Any]:
    """A versioned event payload: ``schema_version`` + ``kind`` + fields."""

    body: Dict[str, Any] = {"schema_version": SCHEMA_VERSION, "kind": kind}
    body.update(fields)
    return body
