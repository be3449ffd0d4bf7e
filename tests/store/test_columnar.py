"""Columnar store: bit-identity, dedup, atomic manifest, reopen continuity."""

from __future__ import annotations

import json

import pytest

from repro.experiments.grid import CellOutcome, cell_key, expand_grid
from repro.store.columnar import META_COLUMNS, CampaignStore
from repro.store.queries import QUERIES, run_query


def outcome_for(cell, metrics):
    return CellOutcome(cell=cell, metrics=metrics, elapsed_seconds=0.5)


class TestRoundTrip:
    def test_rows_come_back_bit_identical(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c1")
        rows = [
            {"experiment": "e", "seed": 1, "x": 0.1 + 0.2, "label": "a,b\n\"q\""},
            {"experiment": "e", "seed": 2, "x": 1e-300, "nested": {"k": [1, None]}},
            {"experiment": "e", "seed": 3, "error": "Traceback:\n  boom\r\n"},
        ]
        for row in rows:
            assert store.append_row(row, scenario="sc")
        store.flush()
        assert CampaignStore(tmp_path / "s").rows() == rows

    def test_write_lands_the_row_under_the_cell_key(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        (cell,) = expand_grid({"n": [4]}, repetitions=1, base_seed=9)
        metrics = {"ratio": 2.4650798028323913, "family": "parallel"}
        assert store.write("fig2", cell, outcome_for(cell, metrics), "v1")
        store.flush()
        (record,) = CampaignStore(tmp_path / "s").records()
        # Keyed like the cache and the journal: the fingerprint is part of it.
        assert record["key"] == cell_key("fig2", cell, "v1")
        assert record["key"] != cell_key("fig2", cell, "v2")
        row = json.loads(record["row_json"])
        assert {name: row[name] for name in metrics} == metrics

    def test_records_carry_only_meta_columns(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c")
        store.append_row({"experiment": "e", "seed": 1, "metric": 2.0}, scenario="sc")
        store.flush()
        (record,) = CampaignStore(tmp_path / "s").records()
        assert set(record) == set(META_COLUMNS)
        assert json.loads(record["row_json"])["metric"] == 2.0

    def test_non_replayable_rows_are_skipped_not_stored(self, tmp_path):
        store = CampaignStore(tmp_path / "s")
        (cell,) = expand_grid({}, repetitions=1)
        rich = CellOutcome(cell=cell, metrics={"payload": {("tuple", 1)}})
        assert store.write("e", cell, rich, "v") is False
        assert store.stats.skipped == 1
        # NaN does not survive a JSON round-trip *unchanged* (NaN != NaN).
        assert store.append_row({"bad": float("nan")}, scenario="sc") is False
        assert store.stats.skipped == 2
        store.flush()
        assert len(CampaignStore(tmp_path / "s")) == 0


class TestDedup:
    def test_same_key_same_campaign_is_dropped(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c")
        (cell,) = expand_grid({"n": [1]}, repetitions=1)
        outcome = outcome_for(cell, {"v": 1.0})
        assert store.write("e", cell, outcome, "v1") is True
        assert store.write("e", cell, outcome, "v1") is False
        assert store.stats.duplicates == 1
        store.flush()
        assert len(store) == 1

    def test_same_key_other_campaign_lands(self, tmp_path):
        (cell,) = expand_grid({"n": [1]}, repetitions=1)
        outcome = outcome_for(cell, {"v": 1.0})
        a = CampaignStore(tmp_path / "s", campaign="a")
        assert a.write("e", cell, outcome, "v1")
        a.flush()
        b = CampaignStore(tmp_path / "s", campaign="b")
        assert b.write("e", cell, outcome, "v1")
        b.flush()
        records = CampaignStore(tmp_path / "s").records()
        assert len(records) == 2
        assert records[0]["key"] == records[1]["key"]  # the cross-campaign join key
        assert {r["campaign"] for r in records} == {"a", "b"}

    def test_dedup_survives_reopen(self, tmp_path):
        (cell,) = expand_grid({"n": [1]}, repetitions=1)
        outcome = outcome_for(cell, {"v": 1.0})
        first = CampaignStore(tmp_path / "s", campaign="c")
        assert first.write("e", cell, outcome, "v1")
        first.flush()
        reopened = CampaignStore(tmp_path / "s", campaign="c")
        assert reopened.write("e", cell, outcome, "v1") is False


class TestIndexing:
    def test_row_index_continues_across_reopen(self, tmp_path):
        first = CampaignStore(tmp_path / "s", campaign="c")
        for value in (1, 2):
            first.append_row({"experiment": "e", "seed": value, "v": value}, scenario="sc")
        first.flush()
        second = CampaignStore(tmp_path / "s", campaign="c")
        second.append_row({"experiment": "e", "seed": 3, "v": 3}, scenario="sc")
        second.flush()
        indices = [r["row_index"] for r in CampaignStore(tmp_path / "s").records()]
        assert indices == [0, 1, 2]

    def test_records_ordered_across_part_files(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c", flush_rows=1)
        for value in range(5):
            store.append_row({"experiment": "e", "seed": value, "v": value}, scenario="sc")
        store.flush()
        fresh = CampaignStore(tmp_path / "s")
        assert len(fresh.partitions()) == 5  # one part per auto-flush
        assert [r["v"] for r in fresh.rows()] == [0, 1, 2, 3, 4]


class TestManifestAtomicity:
    def test_orphan_part_files_are_invisible(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c", fmt="jsonl")
        store.append_row({"experiment": "e", "seed": 1, "v": 1}, scenario="sc")
        store.flush()
        # A crash after writing a part but before the manifest replace
        # leaves an orphan file; readers must not see it.
        orphan = tmp_path / "s" / "campaign=c" / "scenario=sc" / "fingerprint=none" / "part-09999.jsonl"
        orphan.write_text(json.dumps({"campaign": "c", "scenario": "sc",
                                      "row_index": 99, "row_json": "{}"}) + "\n")
        fresh = CampaignStore(tmp_path / "s")
        assert len(fresh) == 1
        assert len(fresh.records()) == 1

    def test_unflushed_buffers_are_invisible(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c")
        store.append_row({"experiment": "e", "seed": 1, "v": 1}, scenario="sc")
        assert CampaignStore(tmp_path / "s").records() == []
        store.flush()
        assert len(CampaignStore(tmp_path / "s").records()) == 1

    def test_corrupt_manifest_reads_as_empty(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "manifest.json").write_text('{"partitions": [')
        assert CampaignStore(root).partitions() == []

    def test_context_manager_flushes(self, tmp_path):
        with CampaignStore(tmp_path / "s", campaign="c") as store:
            store.append_row({"experiment": "e", "seed": 1, "v": 1}, scenario="sc")
        assert len(CampaignStore(tmp_path / "s")) == 1


class TestFormats:
    def test_explicit_jsonl_always_works(self, tmp_path):
        store = CampaignStore(tmp_path / "s", fmt="jsonl")
        store.append_row({"experiment": "e", "seed": 1, "v": 1}, scenario="sc")
        store.flush()
        (part,) = store.partitions()
        assert part.format == "jsonl"
        assert part.path.endswith(".jsonl")

    @pytest.mark.parametrize("fmt", ["orc", "parquet"])
    def test_unknown_format_rejected(self, tmp_path, fmt):
        with pytest.raises(ValueError, match="jsonl"):
            CampaignStore(tmp_path / "s", fmt=fmt)

    def test_parquet_partition_in_manifest_fails_naming_the_part(self, tmp_path):
        root = tmp_path / "s"
        manifest = {"schema": "repro.store/1", "format": "parquet", "partitions": [{
            "campaign": "c", "scenario": "sc", "fingerprint": "",
            "path": "campaign=c/scenario=sc/fingerprint=none/part-00000.parquet",
            "format": "parquet", "rows": 1, "min_index": 0, "max_index": 0,
        }]}
        root.mkdir()
        (root / "manifest.json").write_text(json.dumps(manifest))
        store = CampaignStore(root)
        assert len(store) == 1
        with pytest.raises(ValueError, match="part-00000.parquet.*'parquet' part file"):
            store.records()


QUERY_PARAMS = {
    "rows": {},
    "metric-summary": {"metric": "cmax_ratio"},
    "policy-compare": {"metric": "cmax_ratio", "axis": "family"},
    "compare": {"metric": "cmax_ratio", "campaign_a": "a", "campaign_b": "b"},
    "cell-timing": {},
    "cache-accounting": {},
    "span-summary": {},
    "worker-occupancy": {},
    "phase-attribution": {},
}


def test_parts_with_promoted_columns_read_back_unchanged(tmp_path):
    """Older writers added each scalar row value as its own column next to
    ``row_json``; such parts still give the same rows and query results."""

    from repro.scenarios.composer import run_scenario
    from repro.scenarios.registry import get

    root = tmp_path / "s"
    for campaign in ("a", "b"):
        run_scenario(get("fig2.bicriteria"), smoke=True,
                     sink=CampaignStore(root, campaign=campaign))
    store = CampaignStore(root)
    assert set(QUERY_PARAMS) == set(QUERIES)
    rows = store.rows()
    results = {name: run_query(store, name, params) for name, params in QUERY_PARAMS.items()}

    for part in store.partitions():
        path = root / part.path
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            for name, value in json.loads(record["row_json"]).items():
                if name not in META_COLUMNS and name != "experiment" and (
                    value is None or isinstance(value, (bool, int, float, str))
                ):
                    record[name] = value
        path.write_text("".join(json.dumps(record) + "\n" for record in records))

    old_layout = CampaignStore(root)
    assert any(set(record) > set(META_COLUMNS) for record in old_layout.records())
    assert old_layout.rows() == rows
    assert json.dumps(old_layout.rows()) == json.dumps(rows)
    for name, params in QUERY_PARAMS.items():
        assert run_query(old_layout, name, params) == results[name], name
