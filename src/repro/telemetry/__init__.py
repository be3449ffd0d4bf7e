"""Telemetry: one versioned event API for every runtime surface.

::

    from repro.telemetry import get_bus

    bus = get_bus()                      # process-wide default
    with bus.subscribe(["sweep"]) as sub:
        ...                              # run something observable
        for event in sub.poll():
            print(event.topic, event.payload)

Producers (the distributed scheduler, the sweep harness, the simulation
trace tap, the scheduling runtime) publish versioned payloads into the bus;
consumers poll subscriptions, read ring-buffered topic history, or take a
:meth:`~repro.telemetry.bus.TelemetryBus.snapshot`.  The HTTP dashboard in
:mod:`repro.dashboard` is just another consumer.
"""

from __future__ import annotations

from typing import Optional

from repro.telemetry.bus import (
    Subscription,
    TelemetryBus,
    TelemetryEvent,
    get_bus,
    set_bus,
)
from repro.telemetry.events import (
    ALL_TOPICS,
    SCHEMA_VERSION,
    TOPIC_ASSIGNMENTS,
    TOPIC_QUEUE,
    TOPIC_RUNTIME,
    TOPIC_SCHEDULER,
    TOPIC_SCHEDULER_SPANS,
    TOPIC_SPANS,
    TOPIC_STATS,
    TOPIC_SWEEP,
    TOPIC_TRACE,
    TOPIC_WORKERS,
    WORKER_TOPIC_PREFIX,
    payload,
    worker_topic,
)
from repro.telemetry.listener import (
    CallbackListener,
    FanoutListener,
    SweepListener,
)
from repro.telemetry.recorder import TelemetryRecorder, telemetry_scenario
from repro.telemetry.spans import NULL_SPAN, SpanRecorder


def trace_tap(bus: Optional[TelemetryBus] = None, *, label: str = ""):
    """A tap callable publishing every simulator trace event to ``bus``.

    Install it with :func:`repro.simulation.tracing.set_trace_tap` (process
    wide) or pass it to ``Trace(tap=...)``.  ``label`` distinguishes
    concurrent simulations in the shared ``trace`` topic.
    """

    def tap(event) -> None:
        target = bus if bus is not None else get_bus()
        target.emit(
            TOPIC_TRACE,
            "trace-event",
            label=label,
            time=event.time,
            event=event.kind,
            job=event.job,
            cluster=event.cluster or "",
            processors=len(event.processors),
            info=event.info,
        )

    return tap


__all__ = [
    "ALL_TOPICS",
    "CallbackListener",
    "FanoutListener",
    "NULL_SPAN",
    "SCHEMA_VERSION",
    "SpanRecorder",
    "Subscription",
    "SweepListener",
    "TelemetryBus",
    "TelemetryEvent",
    "TelemetryRecorder",
    "TOPIC_ASSIGNMENTS",
    "TOPIC_QUEUE",
    "TOPIC_RUNTIME",
    "TOPIC_SCHEDULER",
    "TOPIC_SCHEDULER_SPANS",
    "TOPIC_SPANS",
    "TOPIC_STATS",
    "TOPIC_SWEEP",
    "TOPIC_TRACE",
    "TOPIC_WORKERS",
    "WORKER_TOPIC_PREFIX",
    "get_bus",
    "payload",
    "set_bus",
    "telemetry_scenario",
    "trace_tap",
    "worker_topic",
]
