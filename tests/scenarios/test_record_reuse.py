"""A cluster-online row is built from the simulator's record, not re-scored.

``ClusterSimulator.run`` already computes the criteria report and the
lower-bound ratios of its schedule.  ``_run_cluster_online`` reads them from
the :class:`~repro.runtime.record.SimulationRecord` instead of recomputing
both; this suite checks that every smoke cell of every ``cluster-online``
scenario yields the row the recompute would have produced, key for key and
bit for bit.
"""

import numpy as np
import pytest

from repro.experiments.grid import expand_grid
from repro.scenarios import all_specs
from repro.scenarios.composer import (
    _cluster_jobs,
    build_platform,
    _cluster_online_record,
    _ratio_metrics,
    _run_cluster_online,
)

CLUSTER_ONLINE = sorted(
    spec.name for spec in all_specs() if spec.model == "cluster-online"
)


def _recomputed_row(spec, seed):
    """The row as built before the record was reused."""

    record = _cluster_online_record(spec, seed)
    # Rebuild the cell's jobs from the same seed: the platform draws come
    # first, exactly as in the composer.
    rng = np.random.default_rng(seed)
    build_platform(spec.platform, rng)
    jobs = _cluster_jobs(spec, record.machine_count, rng, seed)
    row = _ratio_metrics(record.schedule, jobs, record.machine_count)
    row["policy_name"] = record.policy
    row["trace_events"] = len(record.trace)
    return row


def test_every_cluster_online_scenario_is_covered():
    assert len(CLUSTER_ONLINE) >= 8


@pytest.mark.parametrize("name", CLUSTER_ONLINE)
def test_row_equals_recompute_on_every_smoke_cell(name):
    from repro.scenarios import get

    smoke = get(name).smoke_spec()
    cells = expand_grid(smoke.sweep, repetitions=smoke.repetitions, base_seed=smoke.seed)
    assert cells
    for cell in cells:
        spec = smoke.with_overrides(cell.params_dict) if cell.params else smoke
        row = _run_cluster_online(spec, cell.seed)
        expected = _recomputed_row(spec, cell.seed)
        assert list(row) == list(expected)
        for key, value in expected.items():
            # repr() tells apart floats that == would not (nan, -0.0).
            assert repr(row[key]) == repr(value), (name, cell, key)
