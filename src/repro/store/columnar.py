"""Campaign store: JSONL partitions behind an atomic manifest.

One store directory holds the rows of any number of *campaigns* (a labelled
run of one or more scenario sweeps).  Rows land in part files partitioned by
``campaign / scenario / fingerprint``::

    <root>/manifest.json
    <root>/campaign=serial/scenario=fig2.bicriteria/fingerprint=ab12cd34/part-00000.jsonl
    <root>/campaign=inproc/scenario=fig2.bicriteria/fingerprint=ab12cd34/part-00000.jsonl

Part files are written whole (temp file + ``os.replace``) and only become
visible once the manifest -- itself replaced atomically -- references them,
so a crashed run never leaves a torn store: readers see either the old or
the new manifest, and orphaned part files are ignored.

Every record is one line of :data:`META_COLUMNS`: the exact result row as a
``row_json`` string (the bit-identity channel) plus the store's own
bookkeeping, keyed by :func:`repro.experiments.grid.cell_key` + the
run-function fingerprint, the same dedup keying the result cache and the
campaign journal use.  Appending the same cell to the same campaign twice
is a counted no-op.  Parts written by older versions may carry extra
columns next to ``row_json``; they read back unchanged, and every query
reads the row through ``row_json`` only.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Set, Tuple, Union

from repro.experiments.cache import encode_replayable
from repro.experiments.grid import Cell, CellOutcome, cell_key
from repro.store.api import compose_row, json_stable

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA = "repro.store/1"

#: The columns of every record the store writes.
META_COLUMNS = (
    "campaign", "scenario", "fingerprint", "key", "row_index",
    "seed", "repetition", "elapsed_seconds", "replayed", "row_json",
)

#: The one part-file format (one JSON record per line).
PART_FORMAT = "jsonl"

_SAFE = re.compile(r"[^A-Za-z0-9._-]+")


def _safe(name: str) -> str:
    return _SAFE.sub("_", name) or "_"


@dataclass
class StoreStats:
    appended: int = 0
    duplicates: int = 0   # same (campaign, key) appended again: dropped
    skipped: int = 0      # rows that do not survive a JSON round-trip
    flushes: int = 0
    parts_written: int = 0


@dataclass(frozen=True)
class Partition:
    """One immutable part file referenced by the manifest."""

    campaign: str
    scenario: str
    fingerprint: str
    path: str            # relative to the store root
    format: str          # "jsonl" (the only part format this store reads)
    rows: int
    min_index: int
    max_index: int

    def as_dict(self) -> Dict[str, Any]:
        return {
            "campaign": self.campaign,
            "scenario": self.scenario,
            "fingerprint": self.fingerprint,
            "path": self.path,
            "format": self.format,
            "rows": self.rows,
            "min_index": self.min_index,
            "max_index": self.max_index,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Partition":
        return cls(
            campaign=str(payload["campaign"]),
            scenario=str(payload["scenario"]),
            fingerprint=str(payload.get("fingerprint", "")),
            path=str(payload["path"]),
            format=str(payload.get("format", "jsonl")),
            rows=int(payload.get("rows", 0)),
            min_index=int(payload.get("min_index", 0)),
            max_index=int(payload.get("max_index", 0)),
        )


@dataclass
class _Buffer:
    records: List[Dict[str, Any]] = field(default_factory=list)


class CampaignStore:
    """A directory of campaign results (a RowSink, read back as rows).

    Parameters
    ----------
    root:
        Store directory (created on first flush).
    campaign:
        Campaign label new rows are filed under; cross-campaign queries
        compare these labels.
    fmt:
        Part-file format; only ``"jsonl"`` (the default) is accepted, any
        other value raises :class:`ValueError`.  Parquet is an export
        format of :func:`~repro.store.api.write_rows`, not a part format.
    flush_rows:
        Auto-flush threshold: buffered records are landed once this many
        accumulate (and always on :meth:`flush` / :meth:`close`).
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        campaign: str = "default",
        fmt: Optional[str] = None,
        flush_rows: int = 2048,
    ) -> None:
        if fmt not in (None, PART_FORMAT):
            raise ValueError(f"unknown store format {fmt!r}; expected {PART_FORMAT!r}")
        self.root = Path(root)
        self.campaign = campaign
        self.flush_rows = flush_rows
        self.stats = StoreStats()
        self._lock = threading.Lock()
        self._buffers: Dict[Tuple[str, str, str], _Buffer] = {}
        self._buffered = 0
        self._keys: Optional[Set[Tuple[str, str]]] = None      # (campaign, key)
        self._next_index: Dict[Tuple[str, str], int] = {}      # (campaign, scenario)

    def __repr__(self) -> str:
        return f"CampaignStore({str(self.root)!r}, campaign={self.campaign!r})"

    # -- manifest ----------------------------------------------------------

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    def manifest(self) -> Dict[str, Any]:
        try:
            payload = json.loads(self.manifest_path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {"schema": MANIFEST_SCHEMA, "partitions": []}
        if not isinstance(payload, dict):
            return {"schema": MANIFEST_SCHEMA, "partitions": []}
        payload.setdefault("partitions", [])
        return payload

    def partitions(
        self, *, campaign: Optional[str] = None, scenario: Optional[str] = None
    ) -> List[Partition]:
        parts = [Partition.from_dict(entry) for entry in self.manifest()["partitions"]]
        if campaign is not None:
            parts = [p for p in parts if p.campaign == campaign]
        if scenario is not None:
            parts = [p for p in parts if p.scenario == scenario]
        return parts

    def campaigns(self) -> List[str]:
        return sorted({p.campaign for p in self.partitions()})

    def scenarios(self, campaign: Optional[str] = None) -> List[str]:
        return sorted({p.scenario for p in self.partitions(campaign=campaign)})

    def _write_manifest(self, payload: Dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
        fd, tmp = tempfile.mkstemp(dir=str(self.root), suffix=".manifest.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(blob)
            os.replace(tmp, self.manifest_path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- write half (RowSink) ----------------------------------------------

    def write(self, experiment: str, cell: Cell, outcome: CellOutcome, version: str = "") -> bool:
        """Persist one completed cell (the :class:`~repro.store.api.RowSink` hook).

        Shares the replayability rule of the cache and the journal: only
        outcomes whose metrics survive a JSON round-trip unchanged land, so
        rows read back stay bit-identical.
        """

        if encode_replayable(outcome) is None:
            self.stats.skipped += 1
            return False
        row = compose_row(experiment, cell, outcome)
        return self.append_row(
            row,
            scenario=experiment,
            key=cell_key(experiment, cell, version),
            fingerprint=version,
            seed=cell.seed,
            repetition=cell.repetition,
            elapsed_seconds=outcome.elapsed_seconds,
            replayed=outcome.cached,
        )

    def append_row(
        self,
        row: Mapping[str, Any],
        *,
        scenario: str,
        key: Optional[str] = None,
        campaign: Optional[str] = None,
        fingerprint: str = "",
        seed: Optional[int] = None,
        repetition: Optional[int] = None,
        elapsed_seconds: float = 0.0,
        replayed: bool = False,
    ) -> bool:
        """Append one result row (lower-level than :meth:`write`; used by ingest)."""

        row = dict(row)
        if not json_stable(row):
            self.stats.skipped += 1
            return False
        campaign = campaign if campaign is not None else self.campaign
        if key is None:
            blob = json.dumps([campaign, scenario, row], sort_keys=True)
            import hashlib

            key = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        with self._lock:
            known = self._known_keys()
            if (campaign, key) in known:
                self.stats.duplicates += 1
                return False
            known.add((campaign, key))
            index = self._take_index(campaign, scenario)
            record: Dict[str, Any] = {
                "campaign": campaign,
                "scenario": scenario,
                "fingerprint": fingerprint,
                "key": key,
                "row_index": index,
                "seed": seed if seed is not None else row.get("seed"),
                "repetition": repetition,
                "elapsed_seconds": float(elapsed_seconds),
                "replayed": bool(replayed),
                "row_json": json.dumps(row),
            }
            buffer = self._buffers.setdefault((campaign, scenario, fingerprint), _Buffer())
            buffer.records.append(record)
            self._buffered += 1
            self.stats.appended += 1
            should_flush = self._buffered >= self.flush_rows
        if should_flush:
            self.flush()
        return True

    def _known_keys(self) -> Set[Tuple[str, str]]:
        if self._keys is None:
            keys: Set[Tuple[str, str]] = set()
            for record in self._stored_records():
                keys.add((record["campaign"], record["key"]))
            self._keys = keys
        return self._keys

    def _take_index(self, campaign: str, scenario: str) -> int:
        slot = (campaign, scenario)
        if slot not in self._next_index:
            top = -1
            for part in self.partitions(campaign=campaign, scenario=scenario):
                top = max(top, part.max_index)
            self._next_index[slot] = top + 1
        index = self._next_index[slot]
        self._next_index[slot] = index + 1
        return index

    def flush(self) -> None:
        """Land every buffered record in part files and publish the manifest."""

        with self._lock:
            buffers = {k: b for k, b in self._buffers.items() if b.records}
            self._buffers = {}
            self._buffered = 0
            if not buffers:
                return
            manifest = self.manifest()
            existing = [Partition.from_dict(e) for e in manifest["partitions"]]
            sequence: Dict[Tuple[str, str, str], int] = {}
            for part in existing:
                slot = (part.campaign, part.scenario, part.fingerprint)
                sequence[slot] = max(sequence.get(slot, 0), self._part_number(part.path) + 1)
            for (campaign, scenario, fingerprint), buffer in sorted(buffers.items()):
                number = sequence.get((campaign, scenario, fingerprint), 0)
                partition = self._write_part(
                    campaign, scenario, fingerprint, number, buffer.records
                )
                existing.append(partition)
                self.stats.parts_written += 1
            manifest["schema"] = MANIFEST_SCHEMA
            manifest["format"] = PART_FORMAT
            manifest["partitions"] = [p.as_dict() for p in existing]
            self._write_manifest(manifest)
            self.stats.flushes += 1

    @staticmethod
    def _part_number(path: str) -> int:
        stem = Path(path).stem  # part-00012
        try:
            return int(stem.rsplit("-", 1)[1])
        except (IndexError, ValueError):
            return 0

    def _write_part(
        self,
        campaign: str,
        scenario: str,
        fingerprint: str,
        number: int,
        records: List[Dict[str, Any]],
    ) -> Partition:
        relative = (
            Path(f"campaign={_safe(campaign)}")
            / f"scenario={_safe(scenario)}"
            / f"fingerprint={_safe(fingerprint) if fingerprint else 'none'}"
            / f"part-{number:05d}.{PART_FORMAT}"
        )
        target = self.root / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(target.parent), suffix=".part.tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, default=repr) + "\n")
            os.replace(tmp, target)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        indices = [record["row_index"] for record in records]
        return Partition(
            campaign=campaign,
            scenario=scenario,
            fingerprint=fingerprint,
            path=str(relative),
            format=PART_FORMAT,
            rows=len(records),
            min_index=min(indices),
            max_index=max(indices),
        )

    def close(self) -> None:
        self.flush()

    def __enter__(self) -> "CampaignStore":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- read half: records and rows ---------------------------------------

    def _read_part(self, part: Partition) -> List[Dict[str, Any]]:
        if part.format != PART_FORMAT:
            raise ValueError(
                f"partition {part.path} is a {part.format!r} part file; this "
                f"store reads only {PART_FORMAT!r} parts"
            )
        path = self.root / part.path
        records = []
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return []
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                records.append(json.loads(line))
            except ValueError:
                continue
        return records

    def _stored_records(
        self, *, campaign: Optional[str] = None, scenario: Optional[str] = None
    ) -> Iterator[Dict[str, Any]]:
        for part in self.partitions(campaign=campaign, scenario=scenario):
            for record in self._read_part(part):
                yield record

    def records(
        self, *, campaign: Optional[str] = None, scenario: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """Every landed record (the :data:`META_COLUMNS`, ``row_json`` included).

        Ordered by (campaign, scenario, row_index): the exact append order
        within each sweep, regardless of how records are spread over parts.
        Buffered-but-unflushed records are not visible -- call
        :meth:`flush` first.  Raises :class:`ValueError`, naming the part,
        when the manifest references a part that is not JSONL (a Parquet
        part of an older store).
        """

        loaded = list(self._stored_records(campaign=campaign, scenario=scenario))
        loaded.sort(key=lambda r: (r.get("campaign", ""), r.get("scenario", ""),
                                   int(r.get("row_index", 0))))
        return loaded

    def rows(
        self, *, campaign: Optional[str] = None, scenario: Optional[str] = None
    ) -> List[Dict[str, Any]]:
        """The exact result rows (decoded ``row_json``), in append order."""

        return [json.loads(r["row_json"]) for r in self.records(campaign=campaign,
                                                                scenario=scenario)]

    def __len__(self) -> int:
        return sum(part.rows for part in self.partitions())
