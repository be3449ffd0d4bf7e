"""The unified results API: one protocol for every row producer.

Historically the repository persisted sweep rows through three unrelated
code paths -- the on-disk :class:`~repro.experiments.cache.ResultCache`,
the distributed :class:`~repro.distributed.campaign.CampaignJournal` and
ad-hoc ``reporting.to_csv`` calls -- each with its own encoding.  This
module defines the single contract they all speak now:

* :class:`RowSink` -- anything that accepts completed cells.  The harness
  (:func:`repro.experiments.harness.run_experiment`) streams every finished
  cell into its ``sink=``, whatever executor produced it (serial, a
  local forked fleet, ``tcp://``, ``inproc://``).
* :func:`write_rows` -- the one export entry point behind every CLI
  ``--out`` flag: CSV, JSONL or Parquet, inferred from the file suffix.

All three row stores (cache, journal and the campaign
:class:`~repro.store.columnar.CampaignStore`) implement the sink and share
the :func:`~repro.experiments.cache.encode_replayable` codec.  Each store
keeps its own read path: the harness replays through
:meth:`~repro.experiments.cache.ResultCache.lookup`, the scheduler through
:meth:`~repro.distributed.campaign.CampaignJournal.lookup`, and the store
is read back as rows and records.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.experiments.grid import Cell, CellOutcome

try:  # typing.Protocol: py >= 3.8, runtime_checkable for isinstance tests
    from typing import Protocol, runtime_checkable
except ImportError:  # pragma: no cover - very old interpreters
    Protocol = object  # type: ignore[assignment]

    def runtime_checkable(cls):  # type: ignore[misc]
        return cls


class StoreUnavailableError(RuntimeError):
    """An operation needs an optional analytics dependency that is absent.

    Raised instead of a bare ``ImportError`` so the message can say *what to
    install* (``pip install 'repro-dutot-emt04[analytics]'``) and callers can
    catch one exception type for every missing-backend case.
    """

    def __init__(self, feature: str, dependency: str) -> None:
        super().__init__(
            f"{feature} needs the optional dependency {dependency!r}; "
            f"install the analytics extra: pip install 'repro-dutot-emt04[analytics]'"
        )
        self.dependency = dependency


@runtime_checkable
class RowSink(Protocol):
    """Accepts completed sweep cells; the write half of the results API."""

    def write(self, experiment: str, cell: Cell, outcome: CellOutcome, version: str = "") -> bool:
        """Persist one completed cell; False when the outcome is not persistable."""
        ...

    def flush(self) -> None:
        """Make every accepted cell durable (no-op for line-buffered sinks)."""
        ...


def compose_row(experiment: str, cell: Cell, outcome: CellOutcome) -> Dict[str, Any]:
    """The flat result row of one completed cell.

    The single definition of a row's shape and key order -- experiment,
    seed, sweep parameters, then metrics -- shared by the harness and every
    store, so re-exported rows are bit-identical to streamed ones.
    """

    row: Dict[str, Any] = {"experiment": experiment, "seed": cell.seed}
    row.update(cell.params_dict)
    row.update(outcome.metrics or {})
    return row


def json_stable(value: Any) -> bool:
    """True when ``value`` survives a JSON round-trip unchanged."""

    try:
        return json.loads(json.dumps(value)) == value
    except (TypeError, ValueError):
        return False


def coerce_sink(sink: Union[None, str, Path, RowSink]) -> Optional[RowSink]:
    """Accept a sink object or a store directory path (coerced to a store)."""

    if sink is None or isinstance(sink, RowSink):
        return sink
    from repro.store.columnar import CampaignStore

    return CampaignStore(sink)


# ---------------------------------------------------------------------------
# write_rows: the one export entry point (--out on every CLI)
# ---------------------------------------------------------------------------

#: Formats accepted by :func:`write_rows` / the CLIs' ``--format`` flags.
FORMATS = ("csv", "jsonl", "parquet")

_SUFFIXES = {
    ".csv": "csv",
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".parquet": "parquet",
    ".pq": "parquet",
}


def infer_format(path: Union[str, Path], fmt: Optional[str] = None) -> str:
    """Resolve an export format from an explicit flag or the file suffix."""

    if fmt is not None:
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; expected one of {FORMATS}")
        return fmt
    suffix = Path(path).suffix.lower()
    resolved = _SUFFIXES.get(suffix)
    if resolved is None:
        raise ValueError(
            f"cannot infer a format from {str(path)!r} (suffix {suffix!r}); "
            f"use a {'/'.join(sorted(set(_SUFFIXES)))} suffix or pass --format"
        )
    return resolved


def union_columns(rows: Sequence[Mapping[str, Any]]) -> List[str]:
    """Union of every row's keys, in first-seen order (heterogeneous sweeps)."""

    columns: List[str] = []
    seen = set()
    for row in rows:
        for key in row:
            if key not in seen:
                seen.add(key)
                columns.append(key)
    return columns


def _rows_to_jsonl(rows: Sequence[Mapping[str, Any]]) -> str:
    return "".join(json.dumps(dict(row), default=repr) + "\n" for row in rows)


def normalize_columns(
    records: List[Dict[str, Any]], columns: Sequence[str]
) -> List[Dict[str, Any]]:
    """Make each column's values type-consistent for a Parquet export.

    Within one batch a column mixing ints and floats is widened to float;
    a column mixing incompatible types (e.g. numbers and strings from an
    ``error`` axis) is stringified.
    """

    for column in columns:
        kinds = set()
        for record in records:
            value = record.get(column)
            if value is None:
                continue
            if isinstance(value, bool):
                kinds.add("bool")
            elif isinstance(value, int):
                kinds.add("int")
            elif isinstance(value, float):
                kinds.add("float")
            else:
                kinds.add("str")
        if kinds <= {"int"} or kinds <= {"float"} or kinds <= {"bool"} or kinds <= {"str"}:
            continue
        if kinds <= {"int", "float"}:
            for record in records:
                if isinstance(record.get(column), (int, float)):
                    record[column] = float(record[column])
        else:
            for record in records:
                if record.get(column) is not None:
                    record[column] = str(record[column])
    return records


def _write_parquet(rows: Sequence[Mapping[str, Any]], path: Path,
                   columns: Sequence[str]) -> None:
    try:
        import pyarrow as pa
        import pyarrow.parquet as pq
    except ImportError:
        raise StoreUnavailableError("parquet export", "pyarrow") from None
    flat = [
        {column: row.get(column) for column in columns}
        for row in rows
    ]
    table = pa.Table.from_pylist(normalize_columns(flat, columns))
    pq.write_table(table, str(path))


def write_rows(
    rows: Sequence[Mapping[str, Any]],
    path: Union[str, Path],
    *,
    fmt: Optional[str] = None,
    columns: Optional[Sequence[str]] = None,
) -> Path:
    """Write result rows to ``path`` as CSV, JSONL or Parquet.

    The format is taken from ``fmt`` when given, otherwise inferred from the
    file suffix.  Columns default to the union of every row's keys in
    first-seen order.  Returns the path written.
    """

    from repro.experiments.reporting import to_csv

    path = Path(path)
    resolved = infer_format(path, fmt)
    if columns is None:
        columns = union_columns(rows)
    path.parent.mkdir(parents=True, exist_ok=True)
    if resolved == "csv":
        path.write_text(to_csv(rows, columns=columns), encoding="utf-8")
    elif resolved == "jsonl":
        path.write_text(_rows_to_jsonl(rows), encoding="utf-8")
    else:
        _write_parquet(rows, path, columns)
    return path


def read_rows(path: Union[str, Path], *, fmt: Optional[str] = None) -> List[Dict[str, Any]]:
    """Read back rows written by :func:`write_rows` (tests, round-trips)."""

    path = Path(path)
    resolved = infer_format(path, fmt)
    if resolved == "jsonl":
        return [
            json.loads(line)
            for line in path.read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    if resolved == "parquet":
        try:
            import pyarrow.parquet as pq
        except ImportError:
            raise StoreUnavailableError("parquet import", "pyarrow") from None
        return pq.read_table(str(path)).to_pylist()
    import csv as _csv
    import io

    with io.StringIO(path.read_text(encoding="utf-8")) as handle:
        return [dict(row) for row in _csv.DictReader(handle)]


def store_trace(
    trace: Any,
    store: Any,
    *,
    scenario: str,
    label: str = "",
    campaign: Optional[str] = None,
) -> int:
    """Land a simulation trace in a campaign store, next to result rows.

    Each :class:`~repro.simulation.tracing.TraceEvent` becomes one flat row
    (:meth:`Trace.flat_records` shape) in a ``trace.<scenario>`` partition,
    so the named queries can read schedules next to the result rows of the
    same campaign.  ``store`` is a :class:`~repro.store.columnar.CampaignStore`
    or a store directory path; ``label`` distinguishes multiple traces of
    one scenario (e.g. a policy or seed tag).  Row keys are explicit
    (position-based) because identical events are legitimate in a trace and
    must not be deduplicated away.  Returns the number of rows written.
    """

    from repro.store.columnar import CampaignStore

    target = store if hasattr(store, "append_row") else CampaignStore(store)
    rows = trace.flat_records()
    for index, row in enumerate(rows):
        target.append_row(
            row,
            scenario=f"trace.{scenario}",
            key=f"trace:{scenario}:{label}:{index}",
            campaign=campaign,
            fingerprint=label or "trace",
        )
    target.flush()
    return len(rows)
