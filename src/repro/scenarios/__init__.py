"""Declarative scenario layer: specs, registry, composer, CLI.

The ROADMAP's north star asks for "as many scenarios as you can imagine";
this package turns scenario diversity into *data*.  A scenario is a
:class:`~repro.scenarios.spec.ScenarioSpec` -- workload model + arrival
process + platform + policy + metrics + seed + sweep axes -- registered
under a unique name and materialized by the composer into the existing
parallel experiment harness, so every scenario is sweepable, cacheable
(``REPRO_CACHE_DIR``), parallelizable (``REPRO_JOBS``) and pinned by a
smoke-tier row digest in the golden suite (:mod:`repro.runtime.golden`)
with zero bespoke code.

Quick tour::

    from repro.scenarios import get, names, run_scenario

    names()                                   # every registered scenario
    spec = get("cluster.policy-panel")        # a spec is pure data
    result = run_scenario(spec, smoke=True)   # an ExperimentResult
    print(spec.to_toml())                     # round-trips through TOML

or from the command line::

    python -m repro.scenarios list
    python -m repro.scenarios run --all --smoke
"""

from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError
from repro.scenarios.registry import (
    ScenarioCollisionError,
    all_specs,
    get,
    names,
    register,
    resolve,
    scenario,
    unregister,
)
from repro.scenarios.composer import (
    run_scenario,
    run_scenario_cell,
    rows_digest,
    summarize,
)

# Importing the builtin module registers the shipped scenario families.
from repro.scenarios import builtin  # noqa: F401  (imported for side effects)

__all__ = [
    "ComponentSpec",
    "ScenarioSpec",
    "SpecError",
    "ScenarioCollisionError",
    "scenario",
    "register",
    "unregister",
    "get",
    "names",
    "all_specs",
    "resolve",
    "run_scenario",
    "run_scenario_cell",
    "rows_digest",
    "summarize",
]
