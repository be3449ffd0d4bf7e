"""Execution traces of the simulators.

A :class:`Trace` is an append-only sequence of :class:`TraceEvent` records
(submission, start, completion, kill, resubmission, ...).  The grid metrics
(best-effort kill counts, per-community usage, ...) are computed from traces,
and the traces can be exported to CSV-style records or converted into a
:class:`repro.core.allocation.Schedule` for Gantt rendering.

Storage is columnar: :meth:`Trace.record` appends the six fields of an event
to one flat list, and :class:`TraceEvent` objects are built only when the
trace is read (iteration, queries, exports).  A busy grid records tens of
thousands of events per simulation and most callers only ask for
``len(trace)``, so recording must not pay for an object per event.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

EVENT_KINDS = (
    "submit",
    "start",
    "complete",
    "kill",
    "resubmit",
    "reserve",
    "release",
    "migrate",
    "reject",
    "policy-switch",
)

#: Internal set for O(1) kind validation on the per-event hot path.
_EVENT_KIND_SET = frozenset(EVENT_KINDS)

#: Fields per event in :class:`Trace`'s flat storage, in ``TraceEvent`` order.
_WIDTH = 6

#: Process-wide trace tap picked up by every Trace constructed afterwards.
_TRACE_TAP: Optional[Callable[["TraceEvent"], None]] = None


def set_trace_tap(tap: Optional[Callable[["TraceEvent"], None]]) -> Optional[Callable]:
    """Install a process-wide tap receiving every event of traces created
    from now on (``None`` uninstalls).  Returns the previous tap.

    The tap is observation only: it must not mutate the event and it runs
    on the simulation hot path, so keep it cheap (the telemetry bus's
    :func:`repro.telemetry.trace_tap` qualifies).  Live :class:`Trace`
    instances keep the tap they were built with; per-instance ``tap=``
    overrides the global.
    """

    global _TRACE_TAP
    previous = _TRACE_TAP
    _TRACE_TAP = tap
    return previous


def _check(time: float, kind: str) -> None:
    if kind not in _EVENT_KIND_SET:
        raise ValueError(f"unknown trace event kind {kind!r}")
    # ``not >=`` so that NaN is refused along with negative times.
    if not time >= 0:
        raise ValueError(f"trace event time must be >= 0, got {time!r}")


class TraceEvent:
    """One timestamped event of a simulation.

    A plain ``__slots__`` record: traces grow by thousands of events per
    simulation, so construction cost matters.  Treat instances as immutable.
    """

    __slots__ = ("time", "kind", "job", "cluster", "processors", "info")

    def __init__(
        self,
        time: float,
        kind: str,
        job: str,
        cluster: Optional[str] = None,
        processors: Tuple[int, ...] = (),
        info: str = "",
    ) -> None:
        _check(time, kind)
        self.time = time
        self.kind = kind
        self.job = job
        self.cluster = cluster
        self.processors = processors
        self.info = info

    def _key(self) -> Tuple:
        return (self.time, self.kind, self.job, self.cluster, self.processors, self.info)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceEvent):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"TraceEvent(time={self.time!r}, kind={self.kind!r}, job={self.job!r}, "
            f"cluster={self.cluster!r}, processors={self.processors!r}, info={self.info!r})"
        )


class Trace:
    """Append-only sequence of simulation events with query helpers.

    Events are stored as one flat list, six fields per event; every read
    builds fresh :class:`TraceEvent` objects from it.
    """

    __slots__ = ("_flat", "tap")

    def __init__(self, tap: Optional[Callable[[TraceEvent], None]] = None) -> None:
        self._flat: list = []
        self.tap = tap if tap is not None else _TRACE_TAP

    def record(
        self,
        time: float,
        kind: str,
        job: str,
        *,
        cluster: Optional[str] = None,
        processors: Sequence[int] = (),
        info: str = "",
    ) -> None:
        # Both tests inline on the hot path; _check raises with the message.
        if kind not in _EVENT_KIND_SET or not time >= 0:
            _check(time, kind)
        processors = tuple(processors)
        self._flat.extend((time, kind, job, cluster, processors, info))
        if self.tap is not None:
            self.tap(TraceEvent(time, kind, job, cluster, processors, info))

    # -- queries -------------------------------------------------------------
    def _rows(self) -> Iterator[Tuple]:
        flat = self._flat
        return zip(*(flat[field::_WIDTH] for field in range(_WIDTH)))

    def __len__(self) -> int:
        return len(self._flat) // _WIDTH

    def __iter__(self) -> Iterator[TraceEvent]:
        return (TraceEvent(*row) for row in self._rows())

    def events(self, kind: Optional[str] = None, job: Optional[str] = None) -> List[TraceEvent]:
        return [
            TraceEvent(*row)
            for row in self._rows()
            if (kind is None or row[1] == kind) and (job is None or row[2] == job)
        ]

    def count(self, kind: str, job: Optional[str] = None) -> int:
        return len(self.events(kind, job))

    def completion_time(self, job: str) -> Optional[float]:
        """Time of the *last* completion event of ``job`` (None if never completed)."""

        times = [e.time for e in self.events("complete", job)]
        return max(times) if times else None

    def first_start(self, job: str) -> Optional[float]:
        times = [e.time for e in self.events("start", job)]
        return min(times) if times else None

    def kills(self, job: Optional[str] = None) -> int:
        """Number of best-effort kill events (section 5.2, centralized organisation)."""

        return self.count("kill", job)

    def busy_intervals(self, cluster: Optional[str] = None) -> List[Tuple[str, float, float, int]]:
        """(job, start, end, nbproc) intervals reconstructed from start/complete/kill events."""

        open_intervals: Dict[Tuple[str, Optional[str]], Tuple[float, int]] = {}
        intervals: List[Tuple[str, float, float, int]] = []
        for event in self:
            if cluster is not None and event.cluster != cluster:
                continue
            key = (event.job, event.cluster)
            if event.kind == "start":
                open_intervals[key] = (event.time, len(event.processors))
            elif event.kind in ("complete", "kill") and key in open_intervals:
                start, nbproc = open_intervals.pop(key)
                intervals.append((event.job, start, event.time, nbproc))
        return intervals

    def utilization(self, machine_count: int, horizon: float, cluster: Optional[str] = None) -> float:
        """Fraction of the processor-time area busy up to ``horizon``."""

        if machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        if horizon <= 0:
            return 0.0
        busy = 0.0
        for _job, start, end, nbproc in self.busy_intervals(cluster):
            busy += max(0.0, min(end, horizon) - min(start, horizon)) * nbproc
        return busy / (machine_count * horizon)

    # -- export ----------------------------------------------------------------
    #: Fixed column order of the flat export row (and the CSV header).
    EXPORT_COLUMNS = ("time", "kind", "job", "cluster", "processors", "info")

    def to_records(self) -> List[Dict[str, object]]:
        return [
            {
                "time": e.time,
                "kind": e.kind,
                "job": e.job,
                "cluster": e.cluster,
                "processors": list(e.processors),
                "info": e.info,
            }
            for e in self
        ]

    def flat_records(self) -> List[Dict[str, object]]:
        """JSON-safe flat rows: scalar columns only, one row per event.

        This is the shape the unified results API persists -- processors are
        space-joined, a missing cluster is the empty string -- so trace rows
        can land in any :func:`repro.store.api.write_rows` target or in a
        :class:`~repro.store.columnar.CampaignStore` partition next to
        result rows.
        """

        return [
            {
                "time": e.time,
                "kind": e.kind,
                "job": e.job,
                "cluster": e.cluster or "",
                "processors": " ".join(map(str, e.processors)),
                "info": e.info,
            }
            for e in self
        ]

    def to_csv(self) -> str:
        from repro.experiments.reporting import to_csv

        rows = [dict(record, time=f"{record['time']:.6f}") for record in self.flat_records()]
        header = ",".join(self.EXPORT_COLUMNS) + "\n"
        if not rows:
            return header
        return to_csv(rows, columns=self.EXPORT_COLUMNS)

    def write(self, path: Union[str, Path], *, fmt: Optional[str] = None) -> Path:
        """Persist the trace through :func:`repro.store.api.write_rows`.

        Same entry point as every result-row export: CSV, JSONL or Parquet
        by suffix (or forced with ``fmt``), fixed trace columns.
        """

        from repro.store.api import write_rows

        rows = self.flat_records()
        if fmt == "csv" or (fmt is None and str(path).lower().endswith(".csv")):
            rows = [dict(record, time=f"{record['time']:.6f}") for record in rows]
        return write_rows(rows, path, fmt=fmt, columns=self.EXPORT_COLUMNS)
