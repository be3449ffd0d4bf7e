"""The four benchmark workloads, each a list of timed *steps*.

A step is one short unit of work (at most ~0.4 s) that drives registered
scenarios through the public :func:`repro.scenarios.composer.run_scenario`
path and returns a :class:`StepOutcome`: the digest of the rows it produced,
its cell count and its cell errors.  The measurement loop runs the reference
slice before every step, so steps are kept short enough that a host slowdown
hits a slice and its step alike.

Inputs come from the workload seed alone.  Seed 0 (:data:`DEFAULT_SEED`)
reproduces every spec's registered seed; seed ``n`` moves each spec's base
seed by ``1000 * n`` (and, for the CIMENT grid, whose local community
streams are seeded by ``local_seed_base``, that base too).

No workload forks a process.  ``campaign-inproc`` runs its cells through an
in-process distributed executor (an event-loop thread plus one cell thread),
the others on the serial executor.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import shutil
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

DEFAULT_SEED = 0
SEED_STRIDE = 1000
#: Base-seed distance between the input sets of one run (more than any
#: spec's repetition count, so no two sets share a cell seed).
INPUT_SET_STRIDE = 10
#: Independent input sets per pass.  One input set's cost varies with the
#: seed; a pass sums several, so the work of a run barely depends on it.
INPUT_SETS = {"cluster-online": 4, "grid": 4, "offline-batch": 4, "campaign-inproc": 2}

CLUSTER_ONLINE = (
    "cluster.policy-panel",
    "cluster.bursty-campaigns",
    "cluster.diurnal-load",
    "cluster.community-streams",
    "cluster.load-ramp",
    "cluster.rigid-backfill-mix",
    "cluster.policy-switch",
    "swf.replay",
)
GRID_DECENTRALIZED = (
    "grid.decentralized.exchange",
    "grid.hetero-mix",
    "grid.hetero-policies",
)
OFFLINE_PANELS = ("cluster.offline-panel", "mix.rigid-moldable", "dlt.multiround-scaling")
#: The CIMENT paper grid's single smoke cell costs ~145 ms, more than the
#: rest of a campaign scenario; it is left to the ``grid`` workload.
CAMPAIGN_EXCLUDED = ("fig3.ciment.centralized",)
CAMPAIGN_REPETITIONS = 6
#: Units run back to back as one timed step.  A campaign smoke sweep takes a
#: few tens of ms, too short to be worth a reference slice of its own.
UNITS_PER_STEP = {"campaign-inproc": 2}

READBACK_METRIC = "makespan"


@dataclasses.dataclass
class StepOutcome:
    digest: str
    cells: int
    errors: int
    #: Harness time around the cells: sweep wall minus the cells' own time.
    overhead_s: float = 0.0
    #: Scheduler counters summed over the step's campaigns (``inproc://``).
    scheduler: Dict[str, int] = dataclasses.field(default_factory=dict)
    #: The store a read-back step read.
    store: Any = None


@dataclasses.dataclass(frozen=True)
class Unit:
    """One ``run_scenario`` call: a spec plus the sweep it runs."""

    label: str
    spec: Any
    smoke: bool = False
    overrides: Optional[Dict[str, Any]] = None
    sweep: Optional[Dict[str, List[Any]]] = None
    repetitions: Optional[int] = None

    def first_cell(self) -> "Unit":
        """The same unit narrowed to its first cell (the set-up probe)."""

        effective = self.spec.smoke_spec() if self.smoke else self.spec
        if self.overrides:
            effective = effective.with_overrides(self.overrides)
        axes = self.sweep if self.sweep is not None else effective.sweep
        return dataclasses.replace(
            self,
            sweep={axis: list(values[:1]) for axis, values in axes.items()},
            repetitions=1,
        )

    def run(self, executor: Any, sink: Any = None) -> Any:
        """The unit's :class:`~repro.experiments.harness.ExperimentResult`."""

        from repro.scenarios.composer import run_scenario

        return run_scenario(
            self.spec,
            smoke=self.smoke,
            overrides=self.overrides,
            sweep=self.sweep,
            repetitions=self.repetitions,
            executor=executor,
            sink=sink,
            capture_errors=True,
        )


def run_units(units: Sequence[Unit], executor: Any, sink: Any = None) -> StepOutcome:
    """Run one step's units in order; one digest covers all their rows."""

    from repro.scenarios.composer import rows_digest

    digests: List[str] = []
    outcome = StepOutcome(digest="", cells=0, errors=0)
    for unit in units:
        result = unit.run(executor, sink)
        digests.append(rows_digest(result.rows))
        outcome.cells += len(result.rows) + len(result.errors)
        outcome.errors += len(result.errors)
        outcome.overhead_s += result.elapsed_seconds - sum(result.cell_seconds)
        stats = getattr(executor, "last_stats", None)
        if stats is not None:
            for name, value in stats.counters().items():
                outcome.scheduler[name] = outcome.scheduler.get(name, 0) + value
    outcome.digest = digests[0] if len(digests) == 1 else hashlib.sha256(
        "".join(digests).encode()
    ).hexdigest()
    return outcome


Step = Callable[[], StepOutcome]


class Workload:
    """A named list of units, grouped into steps, and the executor/store
    wiring that runs them."""

    def __init__(self, name: str, seed: int = DEFAULT_SEED, *, tiny: bool = False) -> None:
        if name not in _BUILDERS:
            raise ValueError(f"unknown workload {name!r}; known: {sorted(_BUILDERS)}")
        self.name = name
        self.seed = int(seed)
        self.tiny = tiny
        self.distributed = name == "campaign-inproc"
        self.units: List[Unit] = _BUILDERS[name](self.seed, tiny)
        size = UNITS_PER_STEP.get(name, 1)
        self.groups: List[List[Unit]] = [
            self.units[i:i + size] for i in range(0, len(self.units), size)
        ]

    def step_labels(self) -> List[str]:
        labels = ["+".join(unit.label for unit in group) for group in self.groups]
        if self.distributed:
            labels.append("store.read-back")
        return labels

    def executor(self) -> Any:
        """A fresh executor, always passed explicitly (never from the environment)."""

        if self.distributed:
            from repro.distributed.executor import DistributedExecutor

            # The environment guard has refused REPRO_JOURNAL, so no journal
            # can turn these cells into replays.
            return DistributedExecutor("inproc://", workers=1)
        from repro.experiments.executors import SerialExecutor

        return SerialExecutor()

    def steps(self, executor: Any, store_dir: Optional[Path] = None) -> List[Step]:
        """The steps of one pass.  ``campaign-inproc`` writes a fresh store
        under ``store_dir`` and reads it back as its last step."""

        if not self.distributed:
            return [functools.partial(run_units, group, executor) for group in self.groups]
        if store_dir is None:
            raise ValueError("campaign-inproc needs a store directory")
        from repro.store.columnar import CampaignStore

        shutil.rmtree(store_dir, ignore_errors=True)
        store = CampaignStore(store_dir, campaign="perfbench", fmt="jsonl")
        steps: List[Step] = [
            functools.partial(run_units, group, executor, store) for group in self.groups
        ]
        steps.append(functools.partial(read_back, store))
        return steps

    def serial_digests(self) -> List[str]:
        """The step digests of a serial run without a store, aligned with
        :meth:`steps`.  The read-back's entry digests every unit's rows in the
        order the store returns them (by scenario name)."""

        from repro.experiments.executors import SerialExecutor
        from repro.scenarios.composer import rows_digest

        digests = [run_units(group, SerialExecutor()).digest for group in self.groups]
        if self.distributed:
            rows_by_scenario: Dict[str, List[Dict[str, Any]]] = {}
            for unit in self.units:
                rows = unit.run(SerialExecutor()).rows
                rows_by_scenario.setdefault(unit.spec.name, []).extend(rows)
            digests.append(rows_digest(
                [row for name in sorted(rows_by_scenario) for row in rows_by_scenario[name]]
            ))
        return digests


def read_back(store: Any) -> StepOutcome:
    """Read the pass's store back: rows, two named queries, validation.

    The digest covers the rows only, so it equals the serial digest of the
    same cells; the queries and the validation must succeed and cover them.
    """

    from repro.scenarios.composer import rows_digest
    from repro.store.queries import run_query
    from repro.store.validate import validate_store

    rows = store.rows()
    summary = run_query(store, "metric-summary", {"metric": READBACK_METRIC}, engine="py")
    timing = run_query(store, "cell-timing", engine="py")
    rules = validate_store(store, engine="py")
    errors = sum(rule.violations for rule in rules)
    if not summary or not timing:
        errors += 1
    return StepOutcome(digest=rows_digest(rows), cells=0, errors=errors, store=store)


# ---------------------------------------------------------------------------
# Workload definitions
# ---------------------------------------------------------------------------


def _spec(name: str, seed: int, input_set: int = 0) -> Any:
    from repro.scenarios import registry

    spec = registry.get(name)
    return spec.evolve(seed=spec.seed + SEED_STRIDE * seed + INPUT_SET_STRIDE * input_set)


def _input_sets(name: str, tiny: bool) -> range:
    return range(1 if tiny else INPUT_SETS[name])


def _cluster_online(seed: int, tiny: bool) -> List[Unit]:
    return [
        Unit(f"{name}#{k}", _spec(name, seed, k), smoke=tiny)
        for k in _input_sets("cluster-online", tiny)
        for name in CLUSTER_ONLINE
    ]


def _grid(seed: int, tiny: bool) -> List[Unit]:
    units = []
    for k in _input_sets("grid", tiny):
        # The grid's bag campaign stays the paper's (``grid_seed_base``);
        # the seed draws the local community streams.
        units.append(Unit(
            f"fig3.ciment.centralized#{k}", _spec("fig3.ciment.centralized", seed, k),
            smoke=tiny,
            overrides={"workload.local_seed_base": 10 + SEED_STRIDE * seed + 4 * k},
        ))
        for name in ("grid.node-churn",) + GRID_DECENTRALIZED:
            units.append(Unit(f"{name}#{k}", _spec(name, seed, k), smoke=tiny))
    return units


def _offline_batch(seed: int, tiny: bool) -> List[Unit]:
    units = []
    for k in _input_sets("offline-batch", tiny):
        fig2 = _spec("fig2.bicriteria", seed, k)
        sweep = fig2.smoke_spec().sweep if tiny else fig2.sweep
        units.extend(
            Unit(
                f"fig2.bicriteria[{family},{n_tasks}]#{k}", fig2, smoke=tiny,
                sweep={"workload.family": [family], "workload.n_tasks": [n_tasks]},
            )
            for family in sweep["workload.family"]
            for n_tasks in sweep["workload.n_tasks"]
        )
        units.extend(
            Unit(f"{name}#{k}", _spec(name, seed, k), smoke=tiny) for name in OFFLINE_PANELS
        )
    return units


def _campaign_inproc(seed: int, tiny: bool) -> List[Unit]:
    from repro.scenarios import registry

    names = [n for n in registry.names() if n not in CAMPAIGN_EXCLUDED]
    if tiny:
        names = names[:3]
    reps = 1 if tiny else CAMPAIGN_REPETITIONS
    return [
        Unit(f"{name}#{k}", _spec(name, seed, k), smoke=True, repetitions=reps)
        for k in _input_sets("campaign-inproc", tiny)
        for name in names
    ]


_BUILDERS: Dict[str, Callable[[int, bool], List[Unit]]] = {
    "cluster-online": _cluster_online,
    "grid": _grid,
    "offline-batch": _offline_batch,
    "campaign-inproc": _campaign_inproc,
}

WORKLOADS: Sequence[str] = tuple(_BUILDERS)
