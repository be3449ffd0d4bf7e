"""Ingest: row exports (CSV and JSONL ``--out`` files) into a campaign store."""

from __future__ import annotations

import pytest

from repro.experiments.reporting import to_csv
from repro.scenarios.cli import main as scenarios_main
from repro.store.api import read_rows
from repro.store.cli import main as store_main
from repro.store.columnar import CampaignStore
from repro.store.ingest import _coerce_csv_value, ingest_file


class TestExportIngest:
    @pytest.mark.parametrize("suffix", ["csv", "jsonl", "ndjson"])
    def test_scenario_export_lands_exactly_the_written_rows(self, tmp_path, capsys, suffix):
        out, reference = tmp_path / f"rows.{suffix}", tmp_path / "reference.jsonl"
        for path in (out, reference):
            assert scenarios_main(["run", "fig2.bicriteria", "--smoke", "--out", str(path)]) == 0
        written = read_rows(reference)  # typed values, whatever the export format
        assert written
        capsys.readouterr()
        store = str(tmp_path / "st")
        assert store_main(["ingest", str(out), "--store", store]) == 0
        assert f"ingested {len(written)} row(s)" in capsys.readouterr().out
        assert CampaignStore(store).rows() == written
        # Content-derived keys: a second ingest of the same file appends 0.
        assert store_main(["ingest", str(out), "--store", store]) == 0
        assert "ingested 0 row(s)" in capsys.readouterr().out
        assert len(CampaignStore(store)) == len(written)


class TestCsvIngest:
    def test_round_trips_typed_values(self, tmp_path):
        rows = [
            {"experiment": "e", "seed": 1, "n": 10, "ratio": 1.5, "ok": True, "name": "lpt"},
            {"experiment": "e", "seed": 2, "n": 20, "ratio": 2.5, "ok": False, "name": "wspt"},
        ]
        path = tmp_path / "rows.csv"
        path.write_text(to_csv(rows), encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        assert ingest_file(path, store) == 2
        store.flush()
        assert CampaignStore(tmp_path / "store").rows() == rows

    def test_reingest_is_idempotent(self, tmp_path):
        rows = [{"experiment": "e", "seed": 1, "v": 3}]
        path = tmp_path / "rows.csv"
        path.write_text(to_csv(rows), encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        assert ingest_file(path, store) == 1
        assert ingest_file(path, store) == 0  # content-derived keys dedup the rerun
        store.flush()
        assert len(store) == 1

    def test_cells_are_retyped_int_then_float_then_bool(self):
        assert _coerce_csv_value("7") == 7 and isinstance(_coerce_csv_value("7"), int)
        assert _coerce_csv_value("1e3") == 1000.0
        assert _coerce_csv_value("True") is True
        assert _coerce_csv_value("False") is False
        # Only Python's own spelling is a bool; anything else stays a string.
        assert _coerce_csv_value("true") == "true"
        assert _coerce_csv_value("") == ""


class TestIngestErrors:
    def test_missing_file_raises_oserror(self, tmp_path):
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(OSError):
            ingest_file(tmp_path / "missing.jsonl", store)
        assert len(store) == 0

    def test_unknown_suffix_raises_valueerror(self, tmp_path):
        path = tmp_path / "rows.txt"
        path.write_text("experiment,seed\ne,1\n", encoding="utf-8")
        store = CampaignStore(tmp_path / "store")
        with pytest.raises(ValueError, match="cannot infer a format"):
            ingest_file(path, store)
        assert len(store) == 0
