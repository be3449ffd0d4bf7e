"""CLI: list/describe/run/sweep behaviour and exit codes."""

from __future__ import annotations

import json

import pytest

from repro.scenarios import get, names
from repro.scenarios.cli import main
from repro.scenarios.spec import ScenarioSpec


class TestList:
    def test_list_exits_zero_and_shows_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in names():
            assert name in out
        assert f"{len(names())} scenario(s) registered" in out

    def test_names_only_output(self, capsys):
        assert main(["list", "--names-only"]) == 0
        assert capsys.readouterr().out.split() == names()

    def test_tag_filter(self, capsys):
        assert main(["list", "--tag", "grid", "--names-only"]) == 0
        listed = capsys.readouterr().out.split()
        assert listed == names("grid") and listed


class TestDescribe:
    def test_toml_output_round_trips(self, capsys):
        name = names()[0]
        assert main(["describe", name]) == 0
        text = capsys.readouterr().out
        assert ScenarioSpec.from_toml(text).to_dict() == get(name).to_dict()

    def test_json_output(self, capsys):
        name = names()[0]
        assert main(["describe", name, "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["name"] == name

    def test_unknown_name_exits_two(self, capsys):
        assert main(["describe", "no.such.scenario"]) == 2


class TestRun:
    def test_single_scenario_smoke_exits_zero(self, capsys, tmp_path):
        summary = tmp_path / "summary.json"
        code = main(["run", "mix.rigid-moldable", "--smoke",
                     "--output", str(summary)])
        assert code == 0
        report = json.loads(summary.read_text())
        assert report["tier"] == "smoke"
        (entry,) = report["scenarios"]
        assert entry["ok"] and entry["name"] == "mix.rigid-moldable"
        assert entry["rows"] > 0 and len(entry["digest"]) == 64
        assert "1/1 scenario(s) passed" in capsys.readouterr().out

    def test_cache_env_var_replays_a_rerun(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        summaries = []
        for attempt in ("first", "again"):
            summary = tmp_path / f"{attempt}.json"
            assert main(["run", "mix.rigid-moldable", "--smoke",
                         "--output", str(summary)]) == 0
            (entry,) = json.loads(summary.read_text())["scenarios"]
            summaries.append(entry)
        first, again = summaries
        assert first["cache_hits"] == 0
        assert again["cache_hits"] == again["rows"] > 0
        assert again["digest"] == first["digest"]
        assert f"{again['rows']} cached]" in capsys.readouterr().out

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["run", "no.such.scenario"]) == 2

    def test_no_selection_exits_two(self, capsys):
        assert main(["run"]) == 2

    def test_malformed_executor_spec_is_a_usage_error(self, capsys):
        """A bad --executor is one exit-2 message, not N scenario FAILs."""

        code = main(["run", "mix.rigid-moldable", "--smoke",
                     "--executor", "carrier-pigeon"])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot resolve an executor" in captured.err
        assert "FAIL" not in captured.out
        assert main(["sweep", "mix.rigid-moldable", "--smoke",
                     "--executor", "tcp://nohost"]) == 2

    def test_executor_flag_accepts_job_counts(self, capsys, tmp_path):
        code = main(["run", "mix.rigid-moldable", "--smoke", "--jobs", "1"])
        assert code == 0
        assert "1/1 scenario(s) passed" in capsys.readouterr().out

    def test_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "mini.toml"
        spec_file.write_text(
            get("mix.rigid-moldable")
            .evolve(name="test.cli-toml")
            .smoke_spec()
            .to_toml()
        )
        assert main(["run", "--spec", str(spec_file)]) == 0
        assert "test.cli-toml" in capsys.readouterr().out

    def test_unreadable_spec_file_exits_two(self, capsys, tmp_path):
        assert main(["run", "--spec", str(tmp_path / "missing.toml")]) == 2

    def test_broken_scenario_exits_one(self, capsys, tmp_path):
        spec_file = tmp_path / "broken.toml"
        broken = get("mix.rigid-moldable").evolve(
            name="test.cli-broken", metrics=("no_such_metric",),
        )
        spec_file.write_text(broken.to_toml())
        summary = tmp_path / "summary.json"
        assert main(["run", "--smoke", "--spec", str(spec_file),
                     "--output", str(summary)]) == 1
        out = capsys.readouterr().out
        assert "FAIL test.cli-broken" in out
        (entry,) = json.loads(summary.read_text())["scenarios"]
        assert entry["ok"] is False and "no_such_metric" in entry["error"]


class TestSweep:
    def test_sweep_with_axis_override_and_csv(self, capsys, tmp_path):
        csv = tmp_path / "rows.csv"
        code = main([
            "sweep", "mix.rigid-moldable", "--smoke",
            "--axis", "policy.strategy=separate,first_fit_batch",
            "--repetitions", "1",
            "--out", str(csv),
            "--group-by", "policy.strategy",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "digest" in out and "means by policy.strategy" in out
        header = csv.read_text().splitlines()[0]
        assert "makespan_ratio" in header

    def test_bad_axis_exits_two(self, capsys):
        assert main(["sweep", "mix.rigid-moldable", "--axis", "nonsense"]) == 2

    def test_unknown_scenario_exits_two(self, capsys):
        assert main(["sweep", "no.such.scenario"]) == 2


class TestExportSurface:
    def test_sweep_out_csv(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "fig2.bicriteria", "--smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        assert "cmax_ratio" in out.read_text().splitlines()[0]

    def test_sweep_out_jsonl(self, capsys, tmp_path):
        import json as _json

        out = tmp_path / "rows.jsonl"
        assert main(["sweep", "fig2.bicriteria", "--smoke", "--out", str(out)]) == 0
        capsys.readouterr()
        rows = [_json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == 2 and all("cmax_ratio" in row for row in rows)

    def test_sweep_out_unknown_suffix_needs_format(self, capsys, tmp_path):
        import pytest

        with pytest.raises(ValueError, match="infer"):
            main(["sweep", "fig2.bicriteria", "--smoke",
                  "--out", str(tmp_path / "rows.dat")])

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_removed_csv_flag_is_a_usage_error(self, capsys, tmp_path, command):
        with pytest.raises(SystemExit) as exit_info:
            main([command, "fig2.bicriteria", "--smoke", "--csv", str(tmp_path / "x")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --csv" in capsys.readouterr().err

    def test_run_streams_into_a_campaign_store(self, capsys, tmp_path):
        from repro.store.columnar import CampaignStore

        store_dir = tmp_path / "store"
        assert main(["run", "fig2.bicriteria", "--smoke",
                     "--store", str(store_dir), "--campaign", "smoke"]) == 0
        capsys.readouterr()
        store = CampaignStore(store_dir)
        assert store.campaigns() == ["smoke"]
        assert len(store) == 2
        rows = store.rows()
        assert all(row["experiment"] == "fig2.bicriteria" for row in rows)

    def test_run_out_concatenates_scenario_rows(self, capsys, tmp_path):
        out = tmp_path / "rows.jsonl"
        assert main(["run", "fig2.bicriteria", "--smoke", "--out", str(out)]) == 0
        output = capsys.readouterr().out
        assert "2 row(s) written" in output
        assert len(out.read_text().splitlines()) == 2

    def test_campaign_without_store_exits_two(self, capsys):
        assert main(["run", "fig2.bicriteria", "--smoke", "--campaign", "x"]) == 2
        assert "--store" in capsys.readouterr().err


class TestOneRunner:
    """``run``/``sweep`` are the one scenario runner: executors, fleets,
    recording and the dashboard are its flags, and the duplicate runners of
    the other CLIs are gone."""

    @pytest.mark.parametrize("module, argv", [
        ("repro.distributed.cli", ["run", "fig2.bicriteria", "--smoke", "--workers", "2"]),
        ("repro.distributed.cli", ["scheduler", "fig2.bicriteria", "--bind", "tcp://127.0.0.1:0"]),
        ("repro.telemetry.cli", ["record", "fig2.bicriteria", "--smoke", "--store", "flight"]),
        ("repro.dashboard.__main__", ["serve", "--port", "0", "--run", "fig2.bicriteria"]),
        ("repro.telemetry.cli", ["report", "phase-attribution", "--store", "flight"]),
        ("repro.distributed.cli", ["worker", "tcp://127.0.0.1:1", "--once"]),
    ], ids=["distributed-run", "distributed-scheduler", "telemetry-record", "dashboard-serve-run",
            "telemetry-report", "worker-once"])
    def test_removed_runners_are_usage_errors(self, module, argv, capsys):
        import importlib

        with pytest.raises(SystemExit) as exit_info:
            importlib.import_module(module).main(argv)
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("flags, message", [
        (["--workers", "2"], "--workers needs --executor"),
        (["--executor", "2", "--workers", "2"], "--workers needs --executor"),
        (["--executor", "serial", "--workers", "2"], "--workers needs --executor"),
        (["--executor", "inproc://", "--workers", "0"], "--workers must be >= 1"),
        (["--executor", "tcp://127.0.0.1:0", "--workers", "-1"], "--workers must be >= 1"),
        (["--executor", "udp://x:1", "--workers", "2"], "--workers needs --executor"),
    ])
    def test_workers_needs_a_distributed_address(self, command, flags, message, capsys):
        assert main([command, "fig2.bicriteria", "--smoke", *flags]) == 2
        out, err = capsys.readouterr()
        assert message in err
        assert "FAIL" not in out and "digest" not in out

    def test_a_fleet_run_reports_scheduler_stats_on_stderr(self, capsys, tmp_path):
        summary = tmp_path / "fleet.json"
        assert main(["run", "fig2.bicriteria", "--smoke", "--executor", "inproc://",
                     "--workers", "2", "--output", str(summary)]) == 0
        out, err = capsys.readouterr()
        assert "1/1 scenario(s) passed" in out
        assert "scheduler stats:" in err and "scheduler stats:" not in out
        assert "results=2" in err and "workers_joined=2" in err
        report = json.loads(summary.read_text())
        assert report["schema"] == "repro.scenarios/1"
        (entry,) = report["scenarios"]
        assert entry["executor"] == "distributed"

        assert main(["run", "fig2.bicriteria", "--smoke", "--output", str(summary)]) == 0
        assert "scheduler stats:" not in capsys.readouterr().err
        (serial,) = json.loads(summary.read_text())["scenarios"]
        assert serial["digest"] == entry["digest"]

    def test_an_env_selected_fleet_reports_stats_and_a_bad_env_is_a_usage_error(
        self, capsys, monkeypatch
    ):
        monkeypatch.setenv("REPRO_JOBS", "inproc://")
        assert main(["run", "fig2.bicriteria", "--smoke"]) == 0
        assert "scheduler stats:" in capsys.readouterr().err
        monkeypatch.setenv("REPRO_JOBS", "ten")
        assert main(["run", "fig2.bicriteria", "--smoke"]) == 2
        out, err = capsys.readouterr()
        assert "REPRO_JOBS=ten" in err and "FAIL" not in out

    def test_a_recorded_fleet_lands_worker_events(self, capsys, tmp_path):
        from repro.store.columnar import CampaignStore
        from repro.store.queries import run_query

        flight = tmp_path / "flight"
        assert main(["run", "fig2.bicriteria", "--smoke", "--executor", "inproc://",
                     "--workers", "2", "--record", str(flight)]) == 0
        err = capsys.readouterr().err
        assert "flight recorder:" in err and "(campaign telemetry," in err
        store = CampaignStore(flight)
        topics = {json.loads(r["row_json"]).get("topic", "") for r in store.records()}
        assert any(topic.startswith("worker.") for topic in topics)
        assert run_query(store, "phase-attribution")

    def test_sweep_takes_the_same_runner_flags(self, capsys, tmp_path):
        from repro.store.columnar import CampaignStore

        assert main(["sweep", "fig2.bicriteria", "--smoke", "--dashboard", "0",
                     "--record", str(tmp_path / "flight"), "--campaign", "sweep",
                     "--store", str(tmp_path / "rows")]) == 0
        out, err = capsys.readouterr()
        assert "digest" in out
        assert "dashboard serving on http://" in err
        assert "(campaign sweep," in err
        assert CampaignStore(tmp_path / "rows").campaigns() == ["sweep"]

    @pytest.mark.parametrize("name, axis", [
        ("fig2.bicriteria", "policy.kind"),
        ("cluster.offline-panel", "policy.kind"),
        ("cluster.policy-panel", "policy.kind"),
        ("cluster.policy-switch", "policy.initial"),
        ("grid.decentralized.exchange", "policy.local_policy"),
    ])
    def test_foreign_policy_name_axis_prints_no_rows(self, capsys, name, axis):
        assert main(["sweep", name, "--smoke", "--axis", f"{axis}=nosuch"]) == 1
        out, err = capsys.readouterr()
        assert err.count("SpecError") == 1 and "'nosuch'" in err and "not one of" in err
        assert "CellExecutionError" not in err
        assert axis not in out
