"""Golden-digest equivalence suite.

``goldens.json`` was captured from the pre-refactor simulators (the three
hand-rolled event loops) by ``python -m repro.runtime.golden capture``; the
five paper-artefact cases (kernel churn, the Figure-2 sweep, an on-line
cluster, the CIMENT grid, DLT multi-round) keep the digests they had as
benchmark cases.  These tests recompute every digest with the current code:
a mismatch means the code changed simulator *behavior*, not just its
structure.

The scenario digests are checked both serially and through a 2-process
pool (``REPRO_JOBS=2`` equivalent), proving the refactor also preserved the
parallel-harness bit-identity guarantee.
"""

import json
from pathlib import Path

import pytest

from repro.runtime import golden

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


@pytest.mark.parametrize("name", sorted(GOLDENS["simulators"]))
def test_legacy_simulator_digest_is_bit_identical(name):
    payload = golden.SIMULATOR_CASES[name]()
    assert golden.digest_of(payload) == GOLDENS["simulators"][name], (
        f"simulator case {name!r} drifted from its pre-refactor golden"
    )


@pytest.mark.parametrize("name", sorted(GOLDENS["scenarios"]))
def test_scenario_smoke_digest_is_bit_identical(name):
    digests = golden.scenario_digests([name], executor="serial")
    assert digests[name] == GOLDENS["scenarios"][name], (
        f"scenario {name!r} smoke digest drifted from its pre-refactor golden"
    )


def test_scenario_smoke_digests_with_two_process_pool():
    names = sorted(GOLDENS["scenarios"])
    digests = golden.scenario_digests(names, executor=2)
    assert digests == GOLDENS["scenarios"]


def test_capture_covers_new_scenarios_too():
    """A fresh capture includes every *registered* scenario (new ones get
    goldens when the file is next regenerated; old ones stay pinned)."""

    import repro.scenarios as scenarios

    assert set(GOLDENS["scenarios"]) <= set(scenarios.names())
    assert {"grid.hetero-policies", "cluster.policy-switch"} <= set(scenarios.names())
