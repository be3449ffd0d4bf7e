"""python -m repro.store: exit codes, re-export bit-identity, validation."""

from __future__ import annotations

import sys

import pytest

from repro.store.api import write_rows
from repro.store.cli import _build_parser, main
from repro.store.columnar import CampaignStore


def seed_store(root, campaigns=("serial", "rerun")):
    from repro.scenarios.composer import run_scenario
    from repro.scenarios.registry import get

    spec = get("fig2.bicriteria")
    for campaign in campaigns:
        sink = CampaignStore(root, campaign=campaign, fmt="jsonl")
        run_scenario(spec, smoke=True, sink=sink)
    return CampaignStore(root)


class TestInfo:
    def test_empty_store(self, tmp_path, capsys):
        assert main(["info", "--store", str(tmp_path / "empty")]) == 0
        assert "empty" in capsys.readouterr().out

    def test_populated_store(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["info", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "4 row(s)" in out
        assert "campaign serial" in out and "campaign rerun" in out

    def test_json_output(self, tmp_path, capsys):
        import json

        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["info", "--store", str(tmp_path / "s"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.store/1"
        assert len(payload["partitions"]) == 1


class TestQuery:
    def test_list_needs_no_store(self, capsys):
        assert _build_parser().parse_args(["query", "--list"]).store is None
        assert main(["query", "--list"]) == 0
        out = capsys.readouterr().out
        assert "metric-summary" in out and "compare" in out

    @pytest.mark.parametrize("argv", [
        ["info"],
        ["ingest", "journal.jsonl"],
        ["query", "rows"],
        ["compare", "--metric", "m"],
        ["validate"],
    ])
    def test_store_reading_commands_need_a_store(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "needs --store DIR" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["query", "rows", "--engine", "sql"],
        ["query", "rows", "--sql"],
        ["compare", "--metric", "m", "--engine", "py"],
        ["validate", "--engine", "auto"],
    ])
    def test_removed_engine_flags_are_usage_errors(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--store", str(tmp_path / "s")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_named_query_runs(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["query", "metric-summary", "--store", str(tmp_path / "s"),
                     "--param", "metric=cmax_ratio"]) == 0
        assert "serial" in capsys.readouterr().out

    def test_bad_query_and_params_exit_2(self, tmp_path, capsys):
        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["query", "nope", "--store", str(tmp_path / "s")]) == 2
        assert main(["query", "metric-summary", "--store", str(tmp_path / "s")]) == 2
        assert main(["query", "rows", "--store", str(tmp_path / "s"),
                     "--param", "oops"]) == 2
        capsys.readouterr()

    def test_rows_reexport_is_bit_identical_to_direct_csv(self, tmp_path, capsys):
        from repro.experiments.reporting import to_csv
        from repro.scenarios.composer import run_scenario
        from repro.scenarios.registry import get

        store = CampaignStore(tmp_path / "s", campaign="serial", fmt="jsonl")
        result = run_scenario(get("fig2.bicriteria"), smoke=True, sink=store)
        direct = tmp_path / "direct.csv"
        direct.write_text(to_csv(result.rows), encoding="utf-8")
        assert main(["query", "rows", "--store", str(tmp_path / "s"),
                     "--out", str(tmp_path / "reexport.csv")]) == 0
        capsys.readouterr()
        assert (tmp_path / "reexport.csv").read_bytes() == direct.read_bytes()


class TestCompare:
    def test_identical_campaigns_exit_0(self, tmp_path, capsys):
        seed_store(tmp_path / "s")
        assert main(["compare", "--store", str(tmp_path / "s"),
                     "--metric", "cmax_ratio"]) == 0
        assert "0 differing" in capsys.readouterr().out

    def test_differing_campaigns_exit_1(self, tmp_path, capsys):
        root = tmp_path / "s"
        for campaign, value in (("a", 1.0), ("b", 2.0)):
            store = CampaignStore(root, campaign=campaign, fmt="jsonl")
            store.append_row(
                {"experiment": "e", "seed": 1, "m": value},
                scenario="sc", key="shared-cell-key",
            )
            store.flush()
        assert main(["compare", "--store", str(root), "--metric", "m",
                     "--campaign-a", "a", "--campaign-b", "b"]) == 1
        assert "1 differing" in capsys.readouterr().out

    def test_ambiguous_campaigns_exit_2(self, tmp_path, capsys):
        seed_store(tmp_path / "s", campaigns=("a", "b", "c"))
        assert main(["compare", "--store", str(tmp_path / "s"),
                     "--metric", "cmax_ratio"]) == 2
        assert "--campaign-a" in capsys.readouterr().err


class TestValidate:
    def test_clean_store_exits_0(self, tmp_path, capsys):
        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["validate", "--store", str(tmp_path / "s")]) == 0
        out = capsys.readouterr().out
        assert "bicriteria-cmax-within-4rho" in out
        assert "FAIL" not in out

    def test_violating_store_exits_1(self, tmp_path, capsys):
        store = seed_store(tmp_path / "s", campaigns=("only",))
        store.append_row({"experiment": "bad", "seed": 0, "cmax_ratio": 99.0},
                         scenario="bad")
        store.flush()
        assert main(["validate", "--store", str(tmp_path / "s")]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_output(self, tmp_path, capsys):
        import json

        seed_store(tmp_path / "s", campaigns=("only",))
        assert main(["validate", "--store", str(tmp_path / "s"),
                     "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out[: out.rindex("]") + 1])
        assert any(entry["rule"] == "elapsed-nonnegative" for entry in payload)


class TestIngest:
    def test_labels_via_cli(self, tmp_path, capsys):
        write_rows([{"experiment": "e", "seed": 1, "x": 1},
                    {"experiment": "e", "seed": 2, "x": 2}], tmp_path / "rows.jsonl")
        assert main(["ingest", str(tmp_path / "rows.jsonl"),
                     "--store", str(tmp_path / "s"), "--campaign", "old",
                     "--scenario", "old-sweep"]) == 0
        assert "ingested 2 row(s)" in capsys.readouterr().out
        store = CampaignStore(tmp_path / "s")
        assert store.campaigns() == ["old"]
        assert store.scenarios() == ["old-sweep"]

    def test_missing_source_exits_2(self, tmp_path, capsys):
        assert main(["ingest", str(tmp_path / "missing.jsonl"),
                     "--store", str(tmp_path / "s")]) == 2
        assert "cannot ingest" in capsys.readouterr().err

    def test_unknown_suffix_exits_2(self, tmp_path, capsys):
        (tmp_path / "rows.txt").write_text("experiment,seed\ne,1\n", encoding="utf-8")
        assert main(["ingest", str(tmp_path / "rows.txt"),
                     "--store", str(tmp_path / "s")]) == 2
        assert "cannot infer a format" in capsys.readouterr().err
        assert len(CampaignStore(tmp_path / "s")) == 0

    def test_unknown_suffix_names_only_the_accepted_suffixes(self, tmp_path, capsys):
        # ``ingest`` has no --format flag, so its error must not point to one.
        source = tmp_path / "rows.txt"
        source.write_text("experiment,seed\ne,1\n", encoding="utf-8")
        assert main(["ingest", str(source), "--store", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err.strip()
        assert err == (
            f"cannot ingest {source}: cannot infer a format from {str(source)!r} "
            "(suffix '.txt'); use a .csv/.jsonl/.ndjson/.parquet/.pq suffix"
        )
        assert "--format" not in err

    def test_writers_keep_pointing_to_their_format_flag(self, tmp_path):
        from repro.store.api import write_rows

        with pytest.raises(ValueError, match=r"\.pq suffix or pass --format$"):
            write_rows([{"a": 1}], tmp_path / "rows.txt")

    def test_parquet_without_pyarrow_exits_2(self, tmp_path, capsys, monkeypatch):
        # A ``None`` entry makes ``import pyarrow`` raise ImportError whether
        # or not the optional dependency is installed.
        monkeypatch.setitem(sys.modules, "pyarrow", None)
        monkeypatch.setitem(sys.modules, "pyarrow.parquet", None)
        (tmp_path / "rows.parquet").write_bytes(b"PAR1")
        assert main(["ingest", str(tmp_path / "rows.parquet"),
                     "--store", str(tmp_path / "s")]) == 2
        assert "pyarrow" in capsys.readouterr().err
        assert len(CampaignStore(tmp_path / "s")) == 0
