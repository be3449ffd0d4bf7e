"""Trace export rides the unified results API: flat rows and files."""

from __future__ import annotations

from repro.simulation.tracing import Trace
from repro.store.api import read_rows


def sample_trace() -> Trace:
    trace = Trace()
    trace.record(0.0, "submit", "a", cluster="c0")
    trace.record(1.5, "start", "a", cluster="c0", processors=(0, 1, 2))
    trace.record(4.0, "complete", "a", cluster="c0")
    trace.record(2.0, "start", "be", processors=(3,), info="best-effort")
    trace.record(3.0, "kill", "be", info="best-effort")
    return trace


class TestFlatRecords:
    def test_rows_are_scalar_only_with_fixed_columns(self):
        rows = sample_trace().flat_records()
        assert [tuple(row) for row in rows] == [Trace.EXPORT_COLUMNS] * 5
        start = rows[1]
        assert start["processors"] == "0 1 2"  # space-joined, not a tuple
        assert rows[3]["cluster"] == ""        # None folds to the empty string
        assert rows[4]["info"] == "best-effort"

    def test_csv_has_the_fixed_header_even_when_empty(self):
        assert Trace().to_csv() == "time,kind,job,cluster,processors,info\n"
        csv = sample_trace().to_csv()
        lines = csv.splitlines()
        assert lines[0] == "time,kind,job,cluster,processors,info"
        assert lines[1] == "0.000000,submit,a,c0,,"
        assert lines[2] == "1.500000,start,a,c0,0 1 2,"
        assert len(lines) == 6


class TestWrite:
    def test_csv_and_jsonl_round_trip_through_write_rows(self, tmp_path):
        trace = sample_trace()
        for suffix in ("csv", "jsonl"):
            path = trace.write(tmp_path / f"trace.{suffix}")
            rows = read_rows(path)
            assert len(rows) == 5
            assert [row["kind"] for row in rows] == [
                "submit", "start", "complete", "start", "kill",
            ]
            assert rows[1]["processors"] == "0 1 2"
