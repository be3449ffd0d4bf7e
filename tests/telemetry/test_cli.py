"""The flight recorder end to end: ``repro.scenarios run --record`` writes,
``python -m repro.telemetry`` replays and smoke-checks, and
``python -m repro.store query`` reports."""

from __future__ import annotations

import json

import pytest

from repro.scenarios.cli import main as scenarios_main
from repro.store.cli import main as store_main
from repro.telemetry.cli import main


@pytest.fixture(scope="module")
def recorded_store(tmp_path_factory):
    """One smoke scenario recorded serially; shared across read-only tests."""

    root = tmp_path_factory.mktemp("flight") / "store"
    code = scenarios_main([
        "run", "fig2.bicriteria", "--smoke",
        "--record", str(root), "--campaign", "demo",
    ])
    assert code == 0
    return root


class TestRecord:
    def test_record_lands_events_and_prints_a_summary(
        self, recorded_store, capsys
    ):
        # The fixture already recorded a run; re-run to exercise the summary
        # line and prove two sessions coexist in one store.
        code = scenarios_main([
            "run", "fig2.bicriteria", "--smoke",
            "--record", str(recorded_store), "--campaign", "demo",
        ])
        out, err = capsys.readouterr()
        assert code == 0
        assert "1/1 scenario(s) passed" in out
        assert "flight recorder:" in err and "flight recorder:" not in out
        assert "campaign demo" in err
        assert "0 dropped" in err

    def test_record_without_scenarios_is_usage_error(self, tmp_path, capsys):
        assert scenarios_main(["run", "--record", str(tmp_path / "s")]) == 2
        assert scenarios_main(["run", "no.such", "--record", str(tmp_path / "s")]) == 2

    def test_record_command_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["record", "fig2.bicriteria", "--smoke", "--store", str(tmp_path / "s")])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestReplay:
    def test_replay_prints_recorded_events_as_jsonl(self, recorded_store, capsys):
        assert main(["replay", "--store", str(recorded_store)]) == 0
        out, err = capsys.readouterr()
        events = [json.loads(line) for line in out.splitlines()]
        assert events
        assert all("topic" in event and "seq" in event for event in events)
        assert "replayed" in err

    def test_replay_filters_by_topic_kind_and_limit(self, recorded_store, capsys):
        assert main([
            "replay", "--store", str(recorded_store),
            "--topic", "sweep", "--kind", "sweep-end", "--limit", "1",
        ]) == 0
        out = capsys.readouterr().out
        events = [json.loads(line) for line in out.splitlines()]
        assert len(events) == 1
        assert events[0]["kind"] == "sweep-end"


class TestReport:
    """Recorded telemetry is read with ``repro.store query``, like any store."""

    def test_store_query_lists_the_telemetry_queries(self, capsys):
        assert store_main(["query", "--list"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert {"span-summary", "worker-occupancy", "phase-attribution"} <= set(listed)

    @pytest.mark.parametrize("argv", [["replay"]])
    def test_store_reading_commands_need_a_store(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "needs --store DIR" in capsys.readouterr().err

    def test_span_summary_over_a_recording(self, recorded_store, capsys):
        assert store_main([
            "query", "span-summary", "--store", str(recorded_store),
            "--param", "campaign=demo",
        ]) == 0
        out = capsys.readouterr().out
        assert "harness.wait" in out

    def test_phase_attribution_is_nonempty_and_writable(
        self, recorded_store, tmp_path
    ):
        target = tmp_path / "phases.jsonl"
        assert store_main([
            "query", "phase-attribution", "--store", str(recorded_store),
            "--out", str(target),
        ]) == 0
        rows = [json.loads(line) for line in target.read_text().splitlines()]
        assert rows and all(row["total_seconds"] > 0 for row in rows)


class TestSmoke:
    def test_inproc_smoke_passes_end_to_end(self, tmp_path, capsys):
        code = main([
            "smoke", "--comm", "inproc", "--workers", "3",
            "--dir", str(tmp_path / "smoke"),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "ok: telemetry smoke" in out
        assert "phase-attribution:" in out
        assert "worker.*" in out
