"""Write campaign journals in the legacy JSONL layout, for ingest tests.

The distributed runner once kept its own replay file: one JSON object per
completed cell, keyed by :func:`repro.experiments.grid.cell_key` under the
constant ``campaign`` label and the run fingerprint.  The runner no longer
writes these files (the harness cell cache is the one replay store), but
``python -m repro.store ingest`` still reads them, so the tests build them
here byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Sequence

from repro.experiments.grid import Cell, cell_key
from repro.store.ingest import JOURNAL_LABEL


def journal_entry(cell: Cell, value: float, version: str = "v1") -> Dict[str, object]:
    return {
        "key": cell_key(JOURNAL_LABEL, cell, version),
        "params": cell.params_dict,
        "seed": cell.seed,
        "repetition": cell.repetition,
        "metrics": {"v": value},
        "elapsed_seconds": 0.125,
    }


def write_journal(path: Path, cells: Sequence[Cell], version: str = "v1") -> List[Dict[str, object]]:
    """Append one entry per cell (``v`` = the cell's index); returns them."""

    entries = [journal_entry(cell, float(index), version) for index, cell in enumerate(cells)]
    with open(path, "a", encoding="utf-8") as handle:
        for entry in entries:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entries
