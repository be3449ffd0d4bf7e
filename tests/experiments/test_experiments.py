"""Unit tests of the experiment harness, the Figure 2 experiment and reporting."""

import pytest

from repro.experiments.figure2 import (
    Figure2Config,
    figure2_curves,
    run_figure2,
    run_figure2_point,
)
from repro.experiments.harness import run_experiment
from repro.experiments.ratio_checks import (
    check_batch_ratio,
    check_bicriteria_ratio,
    check_mrt_ratio,
    check_smart_ratio,
)
from repro.experiments.reporting import ascii_plot, ascii_table, to_csv


class TestHarness:
    def test_sweep_runs_cross_product_with_repetitions(self):
        calls = []

        def run(seed, a, b):
            calls.append((seed, a, b))
            return {"value": a * 10 + b, "seed_used": seed}

        result = run_experiment("demo", run, {"a": [1, 2], "b": [3]},
                                repetitions=2, base_seed=100)
        assert len(result) == 4
        assert len(calls) == 4
        assert {row["a"] for row in result.rows} == {1, 2}
        assert {row["seed"] for row in result.rows} == {100, 101}
        assert result.column("value") == [13, 13, 23, 23]
        assert result.elapsed_seconds >= 0.0

    def test_filter_and_grouped_mean(self):
        def run(seed, n):
            return {"metric": n + seed * 0}

        result = run_experiment("demo", run, {"n": [1, 2]}, repetitions=3)
        assert len(result.filter(n=1)) == 3
        means = result.grouped_mean("n", "metric")
        assert means == {1: 1.0, 2: 2.0}

    def test_aggregate(self):
        def run(seed):
            return {"metric": float(seed)}

        result = run_experiment("demo", run, repetitions=4, base_seed=0)
        summary = result.aggregate()["metric"]
        assert summary.count == 4
        assert summary.mean == pytest.approx(1.5)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            run_experiment("x", lambda seed: {}, repetitions=0)

    def test_sink_receives_every_row_including_cache_replays(self, tmp_path):
        from repro.store.columnar import CampaignStore

        def run(seed, n):
            return {"value": float(n)}

        store = CampaignStore(tmp_path / "store", campaign="c", fmt="jsonl")
        first = run_experiment("demo", run, {"n": [1, 2]}, repetitions=1,
                               cache=tmp_path / "cache", sink=store)
        assert len(store) == 2
        assert store.rows() == first.rows

        # A cached re-run streams the replayed rows into a second campaign.
        rerun_store = CampaignStore(tmp_path / "store", campaign="rerun", fmt="jsonl")
        second = run_experiment("demo", run, {"n": [1, 2]}, repetitions=1,
                                cache=tmp_path / "cache", sink=rerun_store)
        assert all(outcome.cached for outcome in second.outcomes)
        merged = CampaignStore(tmp_path / "store")
        assert merged.campaigns() == ["c", "rerun"]
        assert merged.rows(campaign="rerun") == first.rows

    def test_sink_accepts_a_bare_path(self, tmp_path):
        from repro.store.columnar import CampaignStore

        def run(seed):
            return {"v": 1.0}

        run_experiment("demo", run, {}, repetitions=2, sink=tmp_path / "store")
        assert len(CampaignStore(tmp_path / "store")) == 2


class TestFigure2:
    def test_single_point_has_sane_ratios(self):
        point = run_figure2_point(60, "parallel", seed=1)
        assert point.wici_ratio >= 1.0 - 1e-9
        assert point.cmax_ratio >= 1.0 - 1e-9
        assert point.wici_value >= point.wici_bound
        assert point.as_dict()["family"] == "parallel"

    def test_small_sweep_shapes(self):
        """The Figure 2 shape on a reduced sweep: ratios are bounded and the
        large-n points are no worse than the small-n points (flattening)."""

        config = Figure2Config(
            machine_count=32,
            task_counts=(30, 120),
            repetitions=2,
            base_seed=11,
        )
        points = run_figure2(config)
        assert len(points) == 2 * 2 * 2
        curves = figure2_curves(points)
        for criterion in ("wici", "cmax"):
            for family in ("parallel", "non_parallel"):
                curve = curves[criterion][family]
                assert set(curve) == {30, 120}
                # Bounded by a small constant (the paper's worst case is 4*rho).
                assert all(value <= 8.0 for value in curve.values())
                assert all(value >= 1.0 - 1e-9 for value in curve.values())

    def test_non_parallel_jobs_are_sequential_in_the_schedule(self):
        point = run_figure2_point(40, "non_parallel", seed=3)
        assert point.cmax_ratio >= 1.0 - 1e-9

    def test_config_scheduler_variants(self):
        fast = Figure2Config(fast_inner=True).scheduler()
        slow = Figure2Config(fast_inner=False).scheduler()
        assert "deadline-aware" in fast.name
        assert "mrt" in slow.name


class TestRatioChecks:
    def test_mrt_check_reports_bound(self):
        check = check_mrt_ratio(machine_count=16, job_counts=(10, 20), repetitions=2)
        assert check.stated_bound == pytest.approx(1.55)
        assert check.worst_ratio >= check.mean_ratio >= 1.0 - 1e-9
        # On very small instances the pragmatic acceptance test can exceed the
        # stated 3/2 + eps by a little; it always stays below 2 (the factor
        # documented in repro.core.policies.mrt).  The benchmark-scale
        # instances (see benchmarks/test_ratio_mrt_offline.py) do satisfy the
        # stated bound.
        assert check.worst_ratio <= 2.0
        assert check.as_dict()["policy"] == "mrt-dual-approx"

    def test_batch_check(self):
        check = check_batch_ratio(machine_count=16, job_counts=(15,), repetitions=2)
        assert check.worst_ratio <= check.stated_bound + 1e-9

    def test_smart_check_weighted_and_unweighted(self):
        weighted = check_smart_ratio(machine_count=16, job_counts=(20,), repetitions=2,
                                     weighted=True)
        unweighted = check_smart_ratio(machine_count=16, job_counts=(20,), repetitions=2,
                                       weighted=False)
        assert weighted.stated_bound == pytest.approx(8.53)
        assert unweighted.stated_bound == pytest.approx(8.0)
        assert weighted.within_bound
        assert unweighted.within_bound

    def test_bicriteria_check(self):
        cmax_check, wc_check = check_bicriteria_ratio(machine_count=16, job_counts=(20,),
                                                      repetitions=2)
        assert cmax_check.within_bound
        assert wc_check.within_bound
        assert cmax_check.criterion == "makespan"
        assert wc_check.criterion == "weighted_completion"


class TestReporting:
    def test_ascii_table(self):
        rows = [{"policy": "mrt", "ratio": 1.234567}, {"policy": "greedy", "ratio": 2.0}]
        text = ascii_table(rows, title="Ratios")
        assert "Ratios" in text
        assert "mrt" in text
        assert "1.235" in text
        assert ascii_table([]) == "(no data)"

    def test_ascii_plot(self):
        series = {
            "parallel": {100: 1.5, 500: 1.3, 1000: 1.2},
            "non parallel": {100: 2.0, 500: 1.8, 1000: 1.6},
        }
        text = ascii_plot(series, title="WiCi ratio", width=40, height=10)
        assert "WiCi ratio" in text
        assert "P = parallel" in text
        assert ascii_plot({}) == "(no data)"

    def test_to_csv(self):
        rows = [{"a": 1, "b": "x,y"}, {"a": 2, "b": 'quote"inside'}]
        text = to_csv(rows)
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert '"x,y"' in lines[1]
        assert to_csv([]) == ""

    def test_to_csv_quotes_embedded_newlines(self):
        import csv
        import io

        rows = [{"a": "line1\nline2", "b": "cr\rhere", "c": "plain"}]
        text = to_csv(rows)
        # A conforming reader must recover the original values exactly.
        (parsed,) = csv.DictReader(io.StringIO(text))
        assert parsed == {"a": "line1\nline2", "b": "cr\rhere", "c": "plain"}

    def test_to_csv_columns_are_the_union_of_all_rows(self):
        rows = [{"a": 1, "b": 2}, {"b": 3, "c": 4}, {"d": 5}]
        lines = to_csv(rows).strip().splitlines()
        assert lines[0] == "a,b,c,d"
        assert lines[1] == "1,2,,"
        assert lines[2] == ",3,4,"
        assert lines[3] == ",,,5"
