"""Ingest a row export into a campaign store.

The source is any file :func:`repro.store.api.write_rows` writes -- the
``--out`` exports of the scenario and store CLIs, or ``reporting.to_csv``
output -- read back through :func:`repro.store.api.read_rows`, so the
format follows the file suffix (CSV, JSONL or Parquet).  CSV cells are
strings and are re-typed (int, then float, then bool, else string); JSONL
and Parquet values keep their types.  The dedup key is derived from the
row content, so re-ingesting the same file is a no-op.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Optional, Union

from repro.store.api import infer_format, read_rows
from repro.store.columnar import CampaignStore


def _coerce_csv_value(text: str) -> Any:
    for converter in (int, float):
        try:
            return converter(text)
        except ValueError:
            continue
    if text in ("True", "False"):
        return text == "True"
    return text


def ingest_file(
    path: Union[str, Path],
    store: CampaignStore,
    *,
    scenario: Optional[str] = None,
    campaign: Optional[str] = None,
) -> int:
    """Land every row of a CSV/JSONL/Parquet export; returns rows appended.

    Duplicates of rows already in the store are dropped.  Raises
    ``ValueError`` for a suffix :func:`~repro.store.api.infer_format` does
    not know, ``OSError`` for an unreadable file and
    :class:`~repro.store.api.StoreUnavailableError` for Parquet without
    pyarrow.
    """

    path = Path(path)
    fmt = infer_format(path, format_flag=False)
    rows = read_rows(path, fmt=fmt)
    if fmt == "csv":
        rows = [
            {
                column: _coerce_csv_value(value)
                for column, value in row.items()
                if column is not None and value is not None
            }
            for row in rows
        ]
    appended = 0
    for row in rows:
        label = scenario or str(row.get("experiment") or path.stem)
        seed = row.get("seed")
        if store.append_row(
            row,
            scenario=label,
            campaign=campaign,
            seed=seed if isinstance(seed, int) else None,
            replayed=True,
        ):
            appended += 1
    return appended
