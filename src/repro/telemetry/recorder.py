"""Flight recorder: land every telemetry bus event in a CampaignStore.

:class:`TelemetryRecorder` subscribes to a bus and drains the subscription
from a background daemon thread into ``telemetry.<campaign>`` partitions of
a :class:`~repro.store.columnar.CampaignStore` — the same JSONL
store result rows land in, so "where did the milliseconds go" is a named
query (``span-summary`` / ``worker-occupancy`` / ``phase-attribution`` in
:mod:`repro.store.queries`) instead of a log grep.

Design constraints mirror the bus's own:

* **Never perturb the run.**  The recorder is a consumer like any other:
  bounded subscription buffer (the bus drops oldest events for it rather
  than blocking a producer), writes on its own thread, and a store that
  buffers + flushes in batches.
* **Survive replays.**  Every event row gets an explicit position key
  ``telemetry:<token>:<topic>:<seq>`` (token unique per recorder start), so
  the store's ``(campaign, key)`` dedup never collapses two runs' events.
* **Rows are flat.**  ``topic`` / ``seq`` / ``gseq`` / ``time`` plus the
  payload fields, queryable through the record's ``row_json``.
"""

from __future__ import annotations

import threading
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.telemetry.bus import TelemetryBus, get_bus

#: Scenario prefix flight-recorder partitions land under.
TELEMETRY_SCENARIO_PREFIX = "telemetry."

#: Fingerprint label separating telemetry partitions from result partitions.
TELEMETRY_FINGERPRINT = "telemetry"


def telemetry_scenario(campaign: str) -> str:
    """Partition scenario label for a recorded campaign."""

    return f"{TELEMETRY_SCENARIO_PREFIX}{campaign}"


class TelemetryRecorder:
    """Record bus events into ``telemetry.<campaign>`` store partitions.

    ::

        store = CampaignStore("runs/store", campaign="fleet")
        with TelemetryRecorder(store):
            run_scenario(spec, executor=executor)   # events land as rows

    ``store`` may be a :class:`CampaignStore` or a path (a store is opened
    with ``campaign=campaign or "telemetry"``).  Use as a context manager,
    or call :meth:`start` / :meth:`stop` explicitly; ``stop`` drains the
    subscription one last time and flushes the store.
    """

    def __init__(
        self,
        store: Union[str, Path, Any],
        *,
        bus: Optional[TelemetryBus] = None,
        campaign: Optional[str] = None,
        interval: float = 0.2,
        buffer: int = 65536,
    ) -> None:
        if isinstance(store, (str, Path)):
            from repro.store.columnar import CampaignStore

            store = CampaignStore(store, campaign=campaign or "telemetry")
        self.store = store
        self.bus = bus if bus is not None else get_bus()
        self.campaign = campaign or getattr(store, "campaign", "telemetry")
        self.scenario = telemetry_scenario(self.campaign)
        self.interval = interval
        self.buffer = buffer
        self.recorded = 0
        self.skipped = 0
        self._token = ""
        self._subscription = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # -- lifecycle -----------------------------------------------------------
    def start(self) -> "TelemetryRecorder":
        if self._thread is not None:
            raise RuntimeError("TelemetryRecorder already started")
        self._token = uuid.uuid4().hex[:8]
        self._stop.clear()
        self._subscription = self.bus.subscribe(buffer=self.buffer)
        self._thread = threading.Thread(
            target=self._run, name=f"telemetry-recorder-{self.campaign}", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=30)
        self._thread = None
        self._drain()
        subscription = self._subscription
        if subscription is not None:
            subscription.close()
            self._subscription = None
        self.store.flush()

    @property
    def dropped(self) -> int:
        """Events the bus dropped because this recorder fell behind."""

        subscription = self._subscription
        return subscription.dropped if subscription is not None else 0

    def __enter__(self) -> "TelemetryRecorder":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- drain loop ----------------------------------------------------------
    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._drain()

    def _drain(self) -> None:
        subscription = self._subscription
        if subscription is None:
            return
        for event in subscription.poll():
            row: Dict[str, Any] = {
                "topic": event.topic,
                "seq": event.seq,
                "gseq": event.gseq,
                "time": event.time,
            }
            for field, value in event.payload.items():
                row.setdefault(field, value)
            landed = self.store.append_row(
                row,
                scenario=self.scenario,
                key=f"telemetry:{self._token}:{event.topic}:{event.seq}",
                fingerprint=TELEMETRY_FINGERPRINT,
            )
            if landed:
                self.recorded += 1
            else:
                self.skipped += 1

    def __repr__(self) -> str:
        state = "running" if self._thread is not None else "stopped"
        return (
            f"TelemetryRecorder({state}, campaign={self.campaign!r}, "
            f"recorded={self.recorded}, dropped={self.dropped})"
        )
