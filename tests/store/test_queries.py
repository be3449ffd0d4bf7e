"""Named queries against StreamingAggregator and hand-computed telemetry sums."""

from __future__ import annotations

import pytest

from repro.metrics.aggregate import StreamingAggregator
from repro.store.columnar import CampaignStore
from repro.store.queries import QueryError, get_query, run_query
from repro.store.validate import validate_store


@pytest.fixture()
def seeded_store(tmp_path):
    """Two campaigns of the fig2 smoke scenario landed in one store."""

    from repro.scenarios.composer import run_scenario
    from repro.scenarios.registry import get

    spec = get("fig2.bicriteria")
    root = tmp_path / "store"
    for campaign in ("serial", "rerun"):
        sink = CampaignStore(root, campaign=campaign, fmt="jsonl")
        run_scenario(spec, smoke=True, sink=sink)
    return CampaignStore(root)


@pytest.fixture()
def telemetry_store(tmp_path):
    """Synthetic span events recorded into two campaigns."""

    from repro.telemetry import TelemetryBus, TelemetryRecorder

    root = tmp_path / "flight"
    for campaign, scale in (("serial", 1.0), ("fleet", 2.0)):
        bus = TelemetryBus()
        store = CampaignStore(root, campaign=campaign, fmt="jsonl")
        with TelemetryRecorder(store, bus=bus, campaign=campaign):
            for worker, factor in (("w1", 1.0), ("w2", 3.0)):
                topic = f"worker.{worker}.spans"
                for index in range(4):
                    bus.emit(topic, "span", name="cell.execute",
                             seconds=0.5 * scale * factor, worker=worker)
                bus.emit(topic, "span", name="worker.idle",
                         seconds=1.0 * scale, worker=worker)
                bus.emit(topic, "span", name="cell.serialize",
                         seconds=0.25 * scale, worker=worker)
            bus.emit("spans", "span", name="harness.wait", seconds=4.0 * scale)
            bus.emit("spans", "metrics", counters={"cache-hit": 2})
            bus.emit("scheduler", "assign", worker="w1")  # non-span noise
    return CampaignStore(root)


class TestGuards:
    def test_unknown_query_and_params(self, seeded_store):
        with pytest.raises(QueryError, match="unknown query"):
            get_query("nope")
        with pytest.raises(QueryError, match="needs parameter"):
            get_query("metric-summary").check_params({})
        with pytest.raises(QueryError, match="does not take"):
            get_query("rows").check_params({"bogus": 1})

    @pytest.mark.parametrize("engine", ["spark", "sql", "auto"])
    def test_run_query_rejects_every_engine_but_py(self, seeded_store, engine):
        with pytest.raises(QueryError, match="engine"):
            run_query(seeded_store, "rows", engine=engine)

    @pytest.mark.parametrize("engine", ["spark", "sql", "auto"])
    def test_validate_store_rejects_every_engine_but_py(self, seeded_store, engine):
        with pytest.raises(QueryError, match="engine"):
            validate_store(seeded_store, engine=engine)

    def test_py_engine_keyword_is_the_default(self, seeded_store):
        assert run_query(seeded_store, "rows", engine="py") == run_query(seeded_store, "rows")
        assert validate_store(seeded_store, engine="py") == validate_store(seeded_store)


class TestPyEngine:
    def test_rows_query_is_the_bit_identity_channel(self, seeded_store):
        rows = run_query(seeded_store, "rows", {"campaign": "serial"})
        assert rows == seeded_store.rows(campaign="serial")
        assert len(rows) == 2

    def test_metric_summary_matches_streaming_aggregator(self, seeded_store):
        results = run_query(
            seeded_store, "metric-summary",
            {"metric": "cmax_ratio", "campaign": "serial"},
        )
        aggregator = StreamingAggregator()
        for row in seeded_store.rows(campaign="serial"):
            aggregator.update(row)
        expected = aggregator.summaries()["cmax_ratio"].as_dict()
        (result,) = results
        for field, value in expected.items():
            assert result[field] == value, field

    def test_compare_joins_identical_campaigns_as_equal(self, seeded_store):
        results = run_query(
            seeded_store, "compare",
            {"metric": "cmax_ratio", "campaign_a": "serial", "campaign_b": "rerun"},
        )
        assert len(results) == 2
        assert all(r["equal"] is True for r in results)
        assert all(r["diff"] == 0.0 for r in results)
        assert all(r["a_value"] == r["b_value"] for r in results)

    def test_cell_timing_and_cache_accounting(self, seeded_store):
        (timing,) = run_query(
            seeded_store, "cell-timing", {"campaign": "serial"}
        )
        assert timing["cells"] == 2
        assert timing["total_seconds"] >= timing["max_seconds"] >= 0.0
        (accounting,) = run_query(
            seeded_store, "cache-accounting", {"campaign": "serial"}
        )
        assert accounting["rows"] == 2
        assert accounting["computed"] == 2
        assert accounting["distinct_keys"] == 2

    def test_policy_compare_uses_the_axis_column(self, tmp_path):
        store = CampaignStore(tmp_path / "s", campaign="c", fmt="jsonl")
        for seed, policy, value in ((1, "lpt", 2.0), (1, "wspt", 3.0), (2, "lpt", 4.0)):
            store.append_row(
                {"experiment": "e", "seed": seed, "policy_name": policy, "m": value},
                scenario="sc", seed=seed,
            )
        store.flush()
        results = run_query(store, "policy-compare", {"metric": "m"})
        assert [(r["seed"], r["axis_value"], r["mean"]) for r in results] == [
            (1, "lpt", 2.0), (1, "wspt", 3.0), (2, "lpt", 4.0),
        ]


class TestTelemetryQueries:
    def test_span_summary_groups_by_name(self, telemetry_store):
        rows = run_query(
            telemetry_store, "span-summary", {"campaign": "serial"}
        )
        by_name = {row["name"]: row for row in rows}
        execute = by_name["cell.execute"]
        assert execute["spans"] == 8  # 4 per worker, both workers
        assert execute["total_seconds"] == pytest.approx(0.5 * 4 + 1.5 * 4)
        assert execute["max_seconds"] == pytest.approx(1.5)
        assert by_name["harness.wait"]["spans"] == 1
        # metrics and scheduler noise events are not spans
        assert "assign" not in by_name and None not in by_name

    def test_worker_occupancy_ratio(self, telemetry_store):
        rows = run_query(
            telemetry_store, "worker-occupancy", {"campaign": "serial"}
        )
        by_worker = {row["worker"]: row for row in rows}
        w1 = by_worker["w1"]
        assert w1["busy_seconds"] == pytest.approx(2.0)
        assert w1["idle_seconds"] == pytest.approx(1.0)
        assert w1["overhead_seconds"] == pytest.approx(0.25)
        assert w1["cells"] == 4
        assert w1["occupancy"] == pytest.approx(2.0 / 3.25)
        assert set(by_worker) == {"w1", "w2"}

    def test_phase_attribution_shares_sum_to_one(self, telemetry_store):
        rows = run_query(
            telemetry_store, "phase-attribution", {"campaign": "serial"}
        )
        assert rows, "phase-attribution over a recorded run must be non-empty"
        shares = [row["share"] for row in rows]
        assert sum(shares) == pytest.approx(1.0)
        phases = {row["phase"] for row in rows}
        assert {"cell.execute", "worker.idle", "harness.wait"} <= phases

    def test_telemetry_queries_span_campaigns(self, telemetry_store):
        rows = run_query(telemetry_store, "phase-attribution")
        campaigns = {row["campaign"] for row in rows}
        assert campaigns == {"serial", "fleet"}

    def test_result_only_stores_return_empty(self, seeded_store):
        for name in ("span-summary", "worker-occupancy", "phase-attribution"):
            assert run_query(seeded_store, name) == []
