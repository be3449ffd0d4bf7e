"""Ingest: legacy journal -> store equivalence (crash-truncated included), CSV import."""

from __future__ import annotations

import json

from repro.experiments.grid import cell_key, expand_grid
from repro.experiments.reporting import to_csv
from repro.store.columnar import CampaignStore
from repro.store.ingest import (
    JOURNAL_LABEL,
    ingest,
    ingest_csv,
    ingest_journal,
    load_journal_entries,
)
from tests.store.legacy import write_journal


class TestLoadJournalEntries:
    def test_entries_are_keyed_plain_json_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        (cell,) = expand_grid({"x": [7]}, repetitions=1)
        write_journal(path, [cell])
        entry = json.loads(path.read_text().splitlines()[0])
        assert entry["key"] == cell_key(JOURNAL_LABEL, cell, "v1")
        assert load_journal_entries(path) == {entry["key"]: entry}
        assert entry["params"] == {"x": 7}
        assert entry["seed"] == cell.seed

    def test_truncated_trailing_line_is_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        written = write_journal(path, cells)
        # Simulate a campaign killed mid-append: a half-written final line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abcd", "metrics": {"v":')
        recovered = load_journal_entries(path)
        assert set(recovered) == {entry["key"] for entry in written}

    def test_blank_and_keyless_lines_are_skipped(self, tmp_path):
        path = tmp_path / "j.jsonl"
        (cell,) = expand_grid({}, repetitions=1)
        path.write_text('\n[1, 2]\n{"metrics": {"v": 1}}\n{"key": 3}\n', encoding="utf-8")
        (entry,) = write_journal(path, [cell])
        assert list(load_journal_entries(path)) == [entry["key"]]

    def test_later_entry_of_a_key_wins(self, tmp_path):
        path = tmp_path / "j.jsonl"
        (cell,) = expand_grid({}, repetitions=1)
        write_journal(path, [cell])
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"key": cell_key(JOURNAL_LABEL, cell, "v1"),
                                     "metrics": {"v": 9.0}}) + "\n")
        (entry,) = load_journal_entries(path).values()
        assert entry["metrics"] == {"v": 9.0}


class TestJournalIngest:
    def test_equivalent_to_the_journal_entries(self, tmp_path):
        cells = expand_grid({"x": [1, 2]}, repetitions=2, base_seed=11)
        write_journal(tmp_path / "j.jsonl", cells)
        store = CampaignStore(tmp_path / "store", campaign="c")
        appended = ingest_journal(tmp_path / "j.jsonl", store, scenario="sweep")
        store.flush()
        assert appended == 4
        # Same dedup keys, same metrics, same elapsed as the journal holds.
        entries = load_journal_entries(tmp_path / "j.jsonl")
        records = CampaignStore(tmp_path / "store").records()
        assert {r["key"] for r in records} == set(entries)
        for record in records:
            entry = entries[record["key"]]
            assert record["elapsed_seconds"] == entry["elapsed_seconds"]
            assert record["replayed"] is True
            assert json.loads(record["row_json"])["v"] == entry["metrics"]["v"]
            assert record["seed"] == entry["seed"]

    def test_rows_default_to_the_journal_label(self, tmp_path):
        write_journal(tmp_path / "j.jsonl", expand_grid({"x": [1]}, repetitions=1))
        store = CampaignStore(tmp_path / "store")
        assert ingest(tmp_path / "j.jsonl", store) == 1
        store.flush()
        assert store.scenarios() == [JOURNAL_LABEL]
        (row,) = store.rows()
        assert row["experiment"] == JOURNAL_LABEL

    def test_crash_truncated_journal_recovers_complete_entries(self, tmp_path):
        cells = expand_grid({"x": [1, 2, 3]}, repetitions=1)
        path = tmp_path / "j.jsonl"
        write_journal(path, cells)
        # A campaign killed mid-append leaves a half-written trailing line.
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"key": "half-written", "metrics": {"v":')
        assert len(load_journal_entries(path)) == 3
        store = CampaignStore(tmp_path / "store")
        assert ingest(path, store) == 3
        store.flush()
        assert len(store) == 3

    def test_reingest_is_idempotent(self, tmp_path):
        cells = expand_grid({"x": [1, 2]}, repetitions=1)
        path = tmp_path / "j.jsonl"
        write_journal(path, cells)
        store = CampaignStore(tmp_path / "store")
        assert ingest_journal(path, store) == 2
        assert ingest_journal(path, store) == 0  # journal keys dedup the rerun
        store.flush()
        assert len(store) == 2
        assert store.stats.duplicates == 2

    def test_missing_journal_is_empty_not_an_error(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        assert ingest_journal(tmp_path / "missing.jsonl", store) == 0


class TestCsvIngest:
    def test_round_trips_typed_values(self, tmp_path):
        rows = [
            {"experiment": "e", "seed": 1, "n": 10, "ratio": 1.5, "ok": True, "name": "lpt"},
            {"experiment": "e", "seed": 2, "n": 20, "ratio": 2.5, "ok": False, "name": "wspt"},
        ]
        path = tmp_path / "rows.csv"
        path.write_text(to_csv(rows), encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        assert ingest_csv(path, store) == 2
        store.flush()
        assert CampaignStore(tmp_path / "store").rows() == rows

    def test_reingest_is_idempotent(self, tmp_path):
        rows = [{"experiment": "e", "seed": 1, "v": 3}]
        path = tmp_path / "rows.csv"
        path.write_text(to_csv(rows), encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        assert ingest(path, store) == 1
        assert ingest(path, store) == 0  # content-derived keys dedup the rerun
        store.flush()
        assert len(store) == 1

    def test_suffix_dispatch_and_bad_format(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        try:
            ingest(tmp_path / "x.csv", store, fmt="xml")
        except ValueError as error:
            assert "xml" in str(error)
        else:
            raise AssertionError("expected ValueError for unknown format")
