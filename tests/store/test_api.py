"""Unified results API: protocol conformance, row shape, export round-trips."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.cache import ResultCache
from repro.experiments.grid import CellOutcome, expand_grid
from repro.store.api import (
    FORMATS,
    RowSink,
    coerce_sink,
    compose_row,
    infer_format,
    normalize_columns,
    read_rows,
    union_columns,
    write_rows,
)
from repro.store.columnar import CampaignStore


def outcome_for(cell, value=1.0):
    return CellOutcome(cell=cell, metrics={"v": value}, elapsed_seconds=0.25)


def has_pyarrow():
    try:
        import pyarrow  # noqa: F401

        return True
    except ImportError:
        return False


class TestProtocols:
    def all_stores(self, tmp_path):
        return [
            ResultCache(tmp_path / "cache"),
            CampaignStore(tmp_path / "store"),
        ]

    def test_every_row_store_is_a_sink(self, tmp_path):
        for store in self.all_stores(tmp_path):
            assert isinstance(store, RowSink), store

    def test_written_cells_read_back_through_each_stores_own_path(self, tmp_path):
        (cell,) = expand_grid({"x": [3]}, repetitions=1)
        outcome = outcome_for(cell, 42.0)
        cache, store = self.all_stores(tmp_path)
        for sink in (cache, store):
            assert sink.write("exp", cell, outcome, "v1") is True, sink
            sink.flush()
        # The harness replays through the cache...
        replayed = cache.lookup("exp", cell, "v1")
        assert replayed is not None
        assert replayed.cached is True
        assert replayed.metrics == {"v": 42.0}
        assert replayed.elapsed_seconds == pytest.approx(0.25)
        # ...and the campaign store is read back as rows.
        (record,) = CampaignStore(tmp_path / "store").records()
        assert json.loads(record["row_json"]) == compose_row("exp", cell, outcome)
        assert record["elapsed_seconds"] == pytest.approx(0.25)

    def test_failed_outcomes_are_rejected_by_every_store(self, tmp_path):
        (cell,) = expand_grid({}, repetitions=1)
        failed = CellOutcome(cell=cell, error="boom", error_type="ValueError")
        for store in self.all_stores(tmp_path):
            assert store.write("exp", cell, failed, "v1") is False

    def test_coerce_sink(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        assert coerce_sink(None) is None
        assert coerce_sink(store) is store
        coerced = coerce_sink(tmp_path / "other")
        assert isinstance(coerced, CampaignStore)


class TestComposeRow:
    def test_shape_and_key_order(self):
        (cell,) = expand_grid({"b": [2], "a": [1]}, repetitions=1, base_seed=7)
        row = compose_row("exp", cell, outcome_for(cell, 9.0))
        assert row == {"experiment": "exp", "seed": 7, "b": 2, "a": 1, "v": 9.0}
        # experiment, seed, then the cell's parameters, then the metrics.
        assert list(row) == ["experiment", "seed"] + list(cell.params_dict) + ["v"]

    def test_matches_the_harness_row(self):
        from repro.experiments.harness import run_experiment

        def run(seed, n):
            return {"twice": 2 * n}

        result = run_experiment("exp", run, {"n": [3]}, repetitions=1, base_seed=5)
        (cell_outcome,) = result.outcomes
        assert result.rows == [compose_row("exp", cell_outcome.cell, cell_outcome)]


class TestFormats:
    def test_infer_format(self):
        assert infer_format("x.csv") == "csv"
        assert infer_format("x.jsonl") == "jsonl"
        assert infer_format("x.ndjson") == "jsonl"
        assert infer_format("x.parquet") == "parquet"
        assert infer_format(Path("x.pq")) == "parquet"
        assert infer_format("whatever.bin", "csv") == "csv"
        with pytest.raises(ValueError):
            infer_format("rows.txt")
        with pytest.raises(ValueError):
            infer_format("rows.csv", "tsv")
        assert set(FORMATS) == {"csv", "jsonl", "parquet"}

    def test_normalize_columns_widens_and_stringifies(self):
        records = [{"a": 1, "b": 1}, {"a": 2.5, "b": "oops"}, {"a": None, "b": None}]
        normalize_columns(records, ["a", "b"])
        assert records[0]["a"] == 1.0 and isinstance(records[0]["a"], float)
        assert records[0]["b"] == "1" and records[1]["b"] == "oops"
        assert records[2] == {"a": None, "b": None}

    def test_union_columns_first_seen_order(self):
        rows = [{"a": 1, "b": 2}, {"b": 3, "c": 4}, {"a": 5, "d": 6}]
        assert union_columns(rows) == ["a", "b", "c", "d"]

    def test_jsonl_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": "x,y\nz"}, {"a": 2, "c": [1, 2]}]
        path = write_rows(rows, tmp_path / "rows.jsonl")
        assert read_rows(path) == rows

    def test_csv_round_trip_as_text(self, tmp_path):
        rows = [{"a": 1, "b": "plain"}, {"a": 2, "b": "with,comma"}]
        path = write_rows(rows, tmp_path / "rows.csv")
        back = read_rows(path)
        assert [r["b"] for r in back] == ["plain", "with,comma"]

    @pytest.mark.skipif(not has_pyarrow(), reason="pyarrow not installed")
    def test_parquet_round_trip(self, tmp_path):
        rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
        path = write_rows(rows, tmp_path / "rows.parquet")
        assert read_rows(path) == rows

    def test_parquet_without_pyarrow_raises_store_unavailable(self, tmp_path):
        if has_pyarrow():
            pytest.skip("pyarrow installed")
        from repro.store.api import StoreUnavailableError

        with pytest.raises(StoreUnavailableError, match="analytics"):
            write_rows([{"a": 1}], tmp_path / "rows.parquet")
