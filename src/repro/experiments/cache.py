"""On-disk cell cache: repeated sweeps skip completed cells.

This is the one replay store of the repository.  The harness
(:func:`repro.experiments.harness.run_experiment`) opens it from ``cache=``
or, by default, from the ``REPRO_CACHE_DIR`` environment variable; it looks
every cell up before dispatch and stores each outcome as it streams in, so
a killed campaign resumes -- on the serial executor, a forked fleet or a
``tcp://``/``inproc://`` scheduler alike -- re-running only the cells it had
not finished.

Each cached cell is one small JSON file ``<dir>/<experiment>/<key>.json``
holding the metrics and the original timing.  The key (see
:func:`repro.experiments.grid.cell_key`) covers the experiment name, the
configuration, the seed and a fingerprint of the run function's own source
(plus any ``functools.partial`` bound arguments), so editing the cell
function invalidates its cache automatically.  The fingerprint does *not*
see code the function calls into or module-level constants it reads --
after changing those, clear the cache (``ResultCache.clear`` or delete the
directory).

Only JSON-serialisable metrics are cached; cells whose rows hold rich Python
objects are silently recomputed every time (correct, just not accelerated).
Each entry is written atomically (temporary file, then rename), so a crash
mid-write never leaves a truncated entry behind.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.experiments.grid import Cell, CellOutcome, cell_key

#: Environment variable naming the cache directory ``run_experiment`` uses
#: when no ``cache=`` is given (unset or empty = no cache).
CACHE_ENV_VAR = "REPRO_CACHE_DIR"

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def encode_replayable(outcome: CellOutcome) -> Optional[Dict[str, Any]]:
    """The JSON-safe replay fields of a successful outcome, or ``None``.

    The single definition of "replayable" shared by the result cache and
    the campaign store: only metrics that survive a JSON
    round-trip *unchanged* may be persisted (tuples and non-string dict
    keys do not), so replayed rows are bit-identical to freshly computed
    ones.  Failed outcomes and rich-object metrics return ``None`` -- the
    cell is simply recomputed next time (correct, just not accelerated).
    """

    if outcome.failed or outcome.metrics is None:
        return None
    try:
        if json.loads(json.dumps(outcome.metrics)) != outcome.metrics:
            return None
    except (TypeError, ValueError):
        return None
    return {"metrics": outcome.metrics, "elapsed_seconds": outcome.elapsed_seconds}


def decode_replayed(cell: Cell, payload: Mapping[str, Any]) -> CellOutcome:
    """Rebuild the replayed outcome of a persisted entry (``cached=True``)."""

    return CellOutcome(
        cell=cell,
        metrics=payload.get("metrics", {}),
        elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
        cached=True,
    )


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    stores: int = 0
    skipped: int = 0  # results that were not JSON-serialisable


class ResultCache:
    """A directory of per-cell JSON results."""

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.stats = CacheStats()

    @classmethod
    def coerce(cls, cache: Union[None, str, Path, "ResultCache"]) -> Optional["ResultCache"]:
        if cache is None or isinstance(cache, ResultCache):
            return cache
        return cls(cache)

    @classmethod
    def from_env(cls) -> Optional["ResultCache"]:
        """Cache at ``$REPRO_CACHE_DIR`` when set, otherwise no cache."""

        directory = os.environ.get(CACHE_ENV_VAR, "").strip()
        return cls(directory) if directory else None

    def _path(self, experiment: str, key: str) -> Path:
        return self.directory / (_SAFE.sub("_", experiment) or "experiment") / f"{key}.json"

    def lookup(self, experiment: str, cell: Cell, version: str = "") -> Optional[CellOutcome]:
        """The cached outcome of ``cell``, or ``None`` on a miss."""

        path = self._path(experiment, cell_key(experiment, cell, version))
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return decode_replayed(cell, payload)

    def store(self, experiment: str, cell: Cell, outcome: CellOutcome, version: str = "") -> bool:
        """Persist a successful outcome; returns False when not serialisable."""

        if outcome.failed or outcome.metrics is None:
            return False
        replayable = encode_replayable(outcome)
        if replayable is None:
            self.stats.skipped += 1
            return False
        payload: Dict[str, Any] = {
            "experiment": experiment,
            "params": cell.params_dict,
            "seed": cell.seed,
            "repetition": cell.repetition,
            **replayable,
        }
        try:
            blob = json.dumps(payload)
        except (TypeError, ValueError):
            # The cell's *parameters* (free-form Python values) may not be
            # JSON-safe even when its metrics are.
            self.stats.skipped += 1
            return False
        path = self._path(experiment, cell_key(experiment, cell, version))
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic write: a crashed run never leaves a truncated cache entry.
        fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self.stats.stores += 1
        return True

    # -- unified results API (repro.store.api.RowSink) ---------------------

    def write(self, experiment: str, cell: Cell, outcome: CellOutcome, version: str = "") -> bool:
        return self.store(experiment, cell, outcome, version)

    def flush(self) -> None:
        """Entries are individually atomic files; nothing buffered to push."""

    def clear(self) -> int:
        """Delete every cached entry; returns the number of files removed."""

        removed = 0
        if self.directory.is_dir():
            for path in self.directory.rglob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
