"""The Gantt explorer: record rendering."""

from __future__ import annotations

import pytest

from repro.dashboard.gantt import (
    CATEGORICAL,
    FOLD_COLOR,
    _contiguous_groups,
    cluster_color,
    render_gantt_svg,
    render_scenario_gantt,
)
from repro.scenarios import registry
from repro.scenarios.composer import RECORD_MODELS, build_simulation_record


class TestHelpers:
    def test_contiguous_processor_indices_merge_into_rects(self):
        assert _contiguous_groups([0, 1, 2, 5, 7, 8]) == [(0, 3), (5, 1), (7, 2)]
        assert _contiguous_groups([3, 1, 2]) == [(1, 3)]
        assert _contiguous_groups([]) == []

    def test_cluster_colors_fold_past_the_fixed_slots(self):
        assert [cluster_color(i) for i in range(8)] == list(CATEGORICAL)
        assert cluster_color(8) == FOLD_COLOR
        assert cluster_color(23) == FOLD_COLOR


class TestRenderers:
    @pytest.mark.parametrize("scenario", [
        "cluster.policy-panel",          # cluster-online
        "grid.decentralized.exchange",   # grid-decentralized
    ])
    def test_record_models_render_standalone_svg(self, scenario):
        svg = render_scenario_gantt(scenario)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "<title>" in svg  # hover tooltips on run rectangles

    def test_best_effort_runs_are_hatched(self):
        record = build_simulation_record(registry.get("fig3.ciment.centralized"))
        assert any(run.kind == "best-effort" for run in record.runs())
        svg = render_gantt_svg(record, title="t")
        assert "url(#hatch" in svg

    def test_non_record_models_raise_spec_error(self):
        from repro.scenarios.spec import SpecError

        spec = registry.get("fig2.bicriteria")
        assert spec.model not in RECORD_MODELS
        with pytest.raises(SpecError, match="no\\s+SimulationRecord|produces no"):
            build_simulation_record(spec)

    def test_seed_changes_the_rendered_schedule(self):
        first = render_scenario_gantt("cluster.policy-panel", seed=1)
        second = render_scenario_gantt("cluster.policy-panel", seed=2)
        assert first != second
