"""Resumable campaign journal: completed cells survive a killed campaign.

A *campaign* is one sweep routed through the distributed scheduler.  The
journal is an append-only JSONL file: one line per completed cell, keyed by
:func:`repro.experiments.grid.cell_key` over the cell's configuration, seed
and a fingerprint of the run function
(:func:`repro.experiments.harness.run_fingerprint` -- the same versioning
the on-disk :class:`~repro.experiments.cache.ResultCache` uses, so editing
the experiment invalidates journal entries automatically).

When a campaign is killed and restarted against the same journal file, the
scheduler replays the journaled outcomes without re-executing them and only
queues the incomplete cells.  Appends are flushed line-by-line; a line
truncated by a crash mid-write is skipped on load (everything before it is
still recovered).

Like the cell cache -- and through the very same
:func:`~repro.experiments.cache.encode_replayable` helper -- only metrics
that survive a JSON round-trip unchanged are journaled; cells returning
rich Python objects are re-executed on resume (correct, just not
accelerated).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.experiments.cache import decode_replayed, encode_replayable
from repro.experiments.grid import Cell, CellOutcome, cell_key

#: The ``experiment`` label under which journal keys are derived.  The run
#: function fingerprint (folded into the key's ``version``) already pins the
#: campaign's identity, so a constant label keeps keys stable across the
#: harness' varying experiment names.
JOURNAL_EXPERIMENT = "campaign"


def journal_key(cell: Cell, version: str) -> str:
    return cell_key(JOURNAL_EXPERIMENT, cell, version)


def load_journal_entries(path: Union[str, Path]) -> Dict[str, Dict[str, Any]]:
    """All complete entries of a journal file, keyed by cell key.

    Tolerates a missing file and a trailing line truncated by a crash
    mid-append (everything before it is still recovered).  Shared by
    :class:`CampaignJournal` and :func:`repro.store.ingest.ingest_journal`.
    """

    loaded: Dict[str, Dict[str, Any]] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError:
        return loaded
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except ValueError:
            continue  # a line truncated by a crash mid-append
        if isinstance(entry, dict) and isinstance(entry.get("key"), str):
            loaded[entry["key"]] = entry
    return loaded


class CampaignJournal:
    """An on-disk JSONL record of completed campaign cells."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: Optional[Dict[str, Dict[str, Any]]] = None

    @classmethod
    def coerce(
        cls, journal: Union[None, str, Path, "CampaignJournal"]
    ) -> Optional["CampaignJournal"]:
        if journal is None or isinstance(journal, CampaignJournal):
            return journal
        return cls(journal)

    def __repr__(self) -> str:
        return f"CampaignJournal({str(self.path)!r})"

    # -- reading ------------------------------------------------------------

    def entries(self) -> Dict[str, Dict[str, Any]]:
        """All journaled entries, keyed by cell key (loaded once, then live)."""

        with self._lock:
            if self._entries is None:
                self._entries = self._load()
            return self._entries

    def _load(self) -> Dict[str, Dict[str, Any]]:
        return load_journal_entries(self.path)

    def __len__(self) -> int:
        return len(self.entries())

    def lookup(self, cell: Cell, version: str) -> Optional[CellOutcome]:
        """The journaled outcome of ``cell``, or ``None`` when incomplete."""

        entry = self.entries().get(journal_key(cell, version))
        if entry is None:
            return None
        return decode_replayed(cell, entry)

    # -- writing ------------------------------------------------------------

    def record(self, cell: Cell, outcome: CellOutcome, version: str) -> bool:
        """Append a successful outcome; returns False when not journalable."""

        replayable = encode_replayable(outcome)
        if replayable is None:
            return False
        entry = {
            "key": journal_key(cell, version),
            "params": cell.params_dict,
            "seed": cell.seed,
            "repetition": cell.repetition,
            **replayable,
        }
        try:
            line = json.dumps(entry, sort_keys=True)
        except (TypeError, ValueError):
            return False  # non-JSON cell parameters
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")
                handle.flush()
            if self._entries is not None:
                self._entries[entry["key"]] = entry
        return True

    # -- unified results API (repro.store.api.RowSink) ---------------------
    # The journal keys on the run fingerprint alone (JOURNAL_EXPERIMENT is a
    # constant label), so the sink adapter ignores ``experiment``.

    def write(self, experiment: str, cell: Cell, outcome: CellOutcome, version: str = "") -> bool:
        if outcome.failed:
            return False
        return self.record(cell, outcome, version)

    def flush(self) -> None:
        """Appends are flushed line-by-line; nothing buffered to push."""
