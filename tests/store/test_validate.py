"""Validation rules: the paper's ratio bounds re-checked over stored rows."""

from __future__ import annotations

import pytest

from repro.store.columnar import CampaignStore
from repro.store.validate import (
    BICRITERIA_BOUND,
    RULES,
    ValidationRule,
    validate_store,
)


@pytest.fixture()
def fig2_store(tmp_path):
    from repro.scenarios.composer import run_scenario
    from repro.scenarios.registry import get

    sink = CampaignStore(tmp_path / "store", campaign="c", fmt="jsonl")
    run_scenario(get("fig2.bicriteria"), smoke=True, sink=sink)
    return CampaignStore(tmp_path / "store")


def by_name(results):
    return {result.rule.name: result for result in results}


class TestRules:
    def test_bound_matches_ratio_checks_stated_bound(self):
        from repro.experiments.ratio_checks import check_bicriteria_ratio

        checks = check_bicriteria_ratio(
            machine_count=16, job_counts=(10,), repetitions=1, seed=2004
        )
        stated = {check.stated_bound for check in checks}
        assert stated == {BICRITERIA_BOUND}  # 4 * rho with rho = 2

    def test_fig2_smoke_rows_pass(self, fig2_store):
        results = by_name(validate_store(fig2_store))
        for name in ("bicriteria-cmax-within-4rho", "bicriteria-wici-within-4rho",
                     "elapsed-nonnegative"):
            assert results[name].ok and not results[name].skipped, name
        # Metrics the fig2 scenario does not emit skip instead of failing.
        assert results["makespan-ratio-floor"].skipped

    def test_worst_values_match_the_actual_extremes(self, fig2_store):
        rows = fig2_store.rows()
        values = [row["cmax_ratio"] for row in rows]
        result = by_name(validate_store(fig2_store))[
            "bicriteria-cmax-within-4rho"
        ]
        assert result.checked == len(values)
        assert result.worst_high == max(values)
        assert result.worst_low == min(values)

    def test_injected_violation_fails_the_store(self, fig2_store):
        fig2_store.append_row(
            {"experiment": "bad", "seed": 0, "cmax_ratio": BICRITERIA_BOUND + 1.0},
            scenario="bad",
        )
        fig2_store.flush()
        results = by_name(validate_store(fig2_store))
        violated = results["bicriteria-cmax-within-4rho"]
        assert not violated.ok
        assert violated.violations == 1
        assert "FAIL" in violated.describe()

    def test_ratio_below_one_is_a_violation(self, tmp_path):
        store = CampaignStore(tmp_path / "s", fmt="jsonl")
        store.append_row({"experiment": "e", "seed": 0, "cmax_ratio": 0.5}, scenario="s")
        store.flush()
        results = by_name(validate_store(store))
        assert results["bicriteria-cmax-within-4rho"].violations == 1

    def test_custom_rule_and_meta_metric(self, tmp_path):
        store = CampaignStore(tmp_path / "s", fmt="jsonl")
        store.append_row({"experiment": "e", "seed": 0, "v": 1.0},
                         scenario="s", elapsed_seconds=0.5)
        store.flush()
        rule = ValidationRule(name="fast", description="", metric="elapsed_seconds",
                              upper=1.0, meta=True)
        (result,) = validate_store(store, rules=(rule,))
        assert result.ok and result.checked == 1 and result.worst_high == 0.5

    def test_as_dict_round_trip_fields(self, fig2_store):
        for result in validate_store(fig2_store):
            payload = result.as_dict()
            assert {"rule", "metric", "checked", "violations", "ok", "skipped"} <= set(payload)

    def test_rule_names_are_unique(self):
        names = [rule.name for rule in RULES]
        assert len(names) == len(set(names))
