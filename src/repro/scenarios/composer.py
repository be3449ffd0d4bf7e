"""Composer: materialize a :class:`ScenarioSpec` into runnable experiments.

The spec layer (:mod:`repro.scenarios.spec`) is pure data; this module gives
each ``kind`` its meaning:

* **platform kinds** build a processor count, a :class:`Cluster` or a
  :class:`LightGrid`;
* **workload kinds** build job lists (or per-cluster submissions + grid
  bags) from the generators of :mod:`repro.workload`;
* **arrival kinds** re-release the jobs through the processes of
  :mod:`repro.workload.arrivals`;
* **model runners** execute one (spec, seed) cell -- constructing a
  schedule off-line, driving the event simulators, or solving a DLT
  instance -- and flatten the outcome into a metrics dict.

Everything funnels through :func:`run_scenario_cell`, a module-level
picklable function, so every scenario inherits the whole sweep machinery of
:func:`repro.experiments.harness.run_experiment` for free: parallel
executors (``REPRO_JOBS=N`` forked fleets, ``REPRO_JOBS=tcp://host:port``
distributed campaigns), the on-disk cell cache (``REPRO_CACHE_DIR``),
streamed aggregation and bit-identical rows on every backend.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.policies.registry import (
    OFFLINE_SCHEDULERS,
    RELEASE_AWARE_OFFLINE_KINDS,
    make_offline_scheduler,
    policy_names,
)
from repro.experiments.executors import ExecutorSpec
from repro.experiments.harness import ExperimentResult, run_experiment
from repro.scenarios.spec import ComponentSpec, ScenarioSpec, SpecError


# ---------------------------------------------------------------------------
# Platforms
# ---------------------------------------------------------------------------


def build_platform(component: ComponentSpec, rng: np.random.Generator) -> Any:
    """Materialize a platform component (int, Cluster, LightGrid or DLT)."""

    kind, params = component.kind, component.params
    if kind in ("count", "default"):
        return int(params.get("machine_count", 64))
    if kind == "homogeneous":
        from repro.platform.generators import homogeneous_cluster

        return homogeneous_cluster(
            params.get("name", "scenario-cluster"),
            int(params.get("processors", 64)),
            speed=float(params.get("speed", 1.0)),
            cores_per_node=int(params.get("cores_per_node", 1)),
        )
    if kind == "heterogeneous":
        from repro.platform.generators import heterogeneous_cluster

        return heterogeneous_cluster(
            params.get("name", "scenario-cluster"),
            int(params.get("nodes", 64)),
            speed_range=tuple(params.get("speed_range", (0.8, 1.2))),
            cores_per_node=int(params.get("cores_per_node", 1)),
            random_state=rng,
        )
    if kind == "ciment":
        from repro.platform.ciment import ciment_grid

        return ciment_grid()
    if kind == "random-grid":
        from repro.platform.generators import random_light_grid

        return random_light_grid(
            n_clusters=int(params.get("n_clusters", 3)),
            nodes_range=tuple(params.get("nodes_range", (20, 60))),
            speed_range=tuple(params.get("speed_range", (0.5, 1.5))),
            cores_per_node=int(params.get("cores_per_node", 1)),
            random_state=rng,
        )
    if kind == "dlt-star":
        from repro.core.dlt.platform import DLTPlatform, DLTWorker

        n_workers = int(params.get("n_workers", 32))
        workers = [
            DLTWorker(
                name=f"w{i:03d}",
                compute_time=float(params.get("compute_time", 1.0)) + 0.07 * (i % 5),
                comm_time=float(params.get("comm_time", 0.01)) + 0.003 * (i % 7),
                latency=float(params.get("latency", 0.05)) * (i % 3),
            )
            for i in range(n_workers)
        ]
        return DLTPlatform(workers)
    raise SpecError(f"unknown platform kind {kind!r}")


def platform_processor_count(platform: Any) -> int:
    if isinstance(platform, int):
        return platform
    return int(platform.processor_count)


# ---------------------------------------------------------------------------
# Single-cluster workloads
# ---------------------------------------------------------------------------


def _workload_config(params: Mapping[str, Any]) -> Any:
    from repro.workload.models import WorkloadConfig

    kwargs: Dict[str, Any] = {}
    if "runtime_range" in params:
        kwargs["runtime_range"] = tuple(params["runtime_range"])
    if "weight_scheme" in params:
        kwargs["weight_scheme"] = params["weight_scheme"]
    if "sequential_fraction" in params:
        kwargs["sequential_fraction"] = float(params["sequential_fraction"])
    if "max_procs" in params:
        kwargs["max_procs"] = int(params["max_procs"])
    return WorkloadConfig(**kwargs)


def build_jobs(
    component: ComponentSpec,
    machine_count: int,
    rng: np.random.Generator,
    seed: int,
) -> List[Any]:
    """Materialize a single-cluster workload component into a job list."""

    kind, params = component.kind, component.params
    if kind == "rigid":
        from repro.workload.models import generate_rigid_jobs

        return generate_rigid_jobs(
            int(params.get("n_jobs", 50)), machine_count,
            config=_workload_config(params), random_state=rng,
        )
    if kind == "moldable":
        from repro.workload.models import generate_moldable_jobs

        return generate_moldable_jobs(
            int(params.get("n_jobs", 50)), machine_count,
            config=_workload_config(params), random_state=rng,
        )
    if kind == "mixed":
        from repro.workload.models import generate_mixed_jobs

        return generate_mixed_jobs(
            int(params.get("n_jobs", 50)), machine_count,
            rigid_fraction=float(params.get("rigid_fraction", 0.3)),
            config=_workload_config(params), random_state=rng,
        )
    if kind == "figure2":
        from repro.workload.models import figure2_workload

        return figure2_workload(
            int(params.get("n_tasks", 100)), machine_count,
            family=params.get("family", "parallel"),
            random_state=rng,
            runtime_range=tuple(params.get("runtime_range", (1.0, 50.0))),
            weight_scheme=params.get("weight_scheme", "work"),
        )
    if kind == "community":
        from repro.workload.communities import community_workload

        return community_workload(
            params.get("community", "computer-science"),
            int(params.get("n_jobs", 50)), machine_count,
            random_state=rng, online=bool(params.get("online", True)),
        )
    if kind == "swf":
        from repro.workload.swf import swf_to_jobs

        if "text" in params:
            text = params["text"]
        elif "path" in params:
            text = Path(params["path"]).read_text()
        else:
            raise SpecError("swf workload needs a 'text' or 'path' parameter")
        return swf_to_jobs(text, strict=bool(params.get("strict", False)))
    if kind == "swf-roundtrip":
        # Generate a seeded rigid workload, serialise it to SWF text and
        # parse it back: a self-contained trace-replay scenario exercising
        # the full SWF import path without external files.
        from repro.workload.arrivals import poisson_arrivals
        from repro.workload.models import generate_rigid_jobs
        from repro.workload.swf import jobs_to_swf, swf_to_jobs

        jobs = generate_rigid_jobs(
            int(params.get("n_jobs", 50)), machine_count,
            config=_workload_config(params), random_state=rng,
        )
        jobs = poisson_arrivals(
            jobs, rate=float(params.get("rate", 1.0)), random_state=rng
        )
        text = jobs_to_swf(jobs, comment=f"scenario replay seed={seed}")
        return swf_to_jobs(text)
    raise SpecError(f"unknown workload kind {kind!r}")


def inject_node_churn(
    jobs: List[Any],
    machine_count: int,
    churn: Mapping[str, Any],
    rng: np.random.Generator,
) -> List[Any]:
    """Model node churn as high-priority processor-outage jobs.

    Each outage takes ``procs`` processors out of service for an
    exponentially distributed repair time; outages arrive as a Poisson
    process over the span of the workload.  This reuses the queueing
    machinery (an outage is just a rigid job the local users cannot use), so
    every simulator supports churn without kernel changes.
    """

    from repro.core.job import RigidJob

    n_outages = int(churn.get("n_outages", 0))
    if n_outages <= 0:
        return jobs
    span = max((j.release_date for j in jobs), default=0.0) or 1.0
    mean_repair = float(churn.get("mean_repair", span / 10.0))
    procs = int(churn.get("procs", max(1, machine_count // 10)))
    outages = []
    starts = np.sort(rng.uniform(0.0, span, size=n_outages))
    durations = rng.exponential(mean_repair, size=n_outages)
    for index in range(n_outages):
        outages.append(
            RigidJob(
                name=f"outage-{index:03d}",
                release_date=float(starts[index]),
                nbproc=min(procs, machine_count),
                duration=float(max(durations[index], 1e-3)),
                weight=0.0,
                owner="churn",
            )
        )
    return jobs + outages


# ---------------------------------------------------------------------------
# Arrival processes
# ---------------------------------------------------------------------------


#: Arrival kinds that leave the workload's own release dates untouched.
NO_ARRIVAL_KINDS = ("inherit", "none", "default")


def apply_arrival(
    jobs: List[Any],
    component: ComponentSpec,
    machine_count: int,
    rng: np.random.Generator,
) -> List[Any]:
    kind, params = component.kind, component.params
    if kind in NO_ARRIVAL_KINDS:
        return jobs
    from repro.workload import arrivals

    if kind == "offline":
        return arrivals.offline_arrivals(jobs)
    if kind == "poisson":
        return arrivals.poisson_arrivals(
            jobs,
            rate=params.get("rate"),
            mean_interarrival=params.get("mean_interarrival"),
            random_state=rng,
        )
    if kind == "bursty":
        return arrivals.bursty_arrivals(
            jobs,
            burst_size=int(params.get("burst_size", 10)),
            burst_gap=float(params.get("burst_gap", 50.0)),
            random_state=rng,
        )
    if kind == "diurnal":
        return arrivals.diurnal_arrivals(
            jobs,
            mean_interarrival=float(params.get("mean_interarrival", 1.0)),
            period=float(params.get("period", 24.0)),
            peak_to_trough=float(params.get("peak_to_trough", 4.0)),
            random_state=rng,
        )
    if kind == "scaled-load":
        return arrivals.scaled_load_arrivals(
            jobs, machine_count,
            target_utilization=float(params.get("target_utilization", 0.7)),
            random_state=rng,
        )
    raise SpecError(f"unknown arrival kind {kind!r}")


# ---------------------------------------------------------------------------
# Model runners: one (spec, seed) cell -> flat metrics dict
# ---------------------------------------------------------------------------


def _cluster_jobs(spec: ScenarioSpec, machine_count: int, rng: np.random.Generator, seed: int) -> List[Any]:
    params = spec.workload.params
    churn = params.get("churn")
    workload = ComponentSpec(
        spec.workload.kind,
        {k: v for k, v in params.items() if k != "churn"},
    )
    jobs = build_jobs(workload, machine_count, rng, seed)
    jobs = apply_arrival(jobs, spec.arrival, machine_count, rng)
    if churn:
        jobs = inject_node_churn(jobs, machine_count, churn, rng)
    return jobs


def _ratio_metrics(schedule: Any, jobs: Sequence[Any], machine_count: int) -> Dict[str, Any]:
    from repro.core.criteria import CriteriaReport
    from repro.metrics.ratios import schedule_ratios

    metrics: Dict[str, Any] = dict(CriteriaReport.from_schedule(schedule).as_dict())
    metrics.update(schedule_ratios(schedule, jobs, machine_count=machine_count).as_dict())
    return metrics


def _run_offline(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    rng = np.random.default_rng(seed)
    platform = build_platform(spec.platform, rng)
    machine_count = platform_processor_count(platform)
    jobs = _cluster_jobs(spec, machine_count, rng, seed)
    scheduler = make_offline_scheduler(spec.policy.kind, spec.policy.params)
    if spec.policy.params.get("capture_errors"):
        try:
            schedule = scheduler.schedule(jobs, machine_count)
        except Exception as error:  # a policy may not support a job type
            return {"policy_name": scheduler.name, "error": str(error)[:60]}
    else:
        schedule = scheduler.schedule(jobs, machine_count)
    schedule.validate()
    metrics = _ratio_metrics(schedule, jobs, machine_count)
    metrics["policy_name"] = scheduler.name
    return metrics


def _cluster_online_record(spec: ScenarioSpec, seed: int) -> Any:
    """Drive the cluster simulator for one cell and return its record."""

    from repro.core.policies.base import MoldableAllocator
    from repro.simulation.cluster_sim import ClusterSimulator

    rng = np.random.default_rng(seed)
    platform = build_platform(spec.platform, rng)
    machine_count = platform_processor_count(platform)
    jobs = _cluster_jobs(spec, machine_count, rng, seed)
    kind = spec.policy.kind
    switches = []
    if kind == "switch":
        # Mid-run policy switching: start under ``initial`` and swap to the
        # named policies at the given simulation times.
        policy = spec.policy.params.get("initial", "fifo")
        switches = [
            (float(time), str(name))
            for time, name in spec.policy.params.get("switches", [])
        ]
    else:
        policy = "fifo" if kind == "default" else kind
    allocator = spec.policy.params.get("allocator")
    simulator = ClusterSimulator(
        platform if not isinstance(platform, int) else machine_count,
        policy=policy,
        allocator=MoldableAllocator(allocator) if allocator else None,
        policy_switches=switches,
    )
    return simulator.run(jobs)


def _run_cluster_online(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    result = _cluster_online_record(spec, seed)
    # The simulator already scored its schedule against these jobs on this
    # platform; the record is the single source of the cell's criteria and
    # ratios (same keys and floats as a ``_ratio_metrics`` recompute).
    metrics: Dict[str, Any] = dict(result.criteria.as_dict())
    metrics.update(result.ratios.as_dict())
    metrics["policy_name"] = result.policy
    metrics["trace_events"] = len(result.trace)
    return metrics


def _grid_submissions(
    spec: ScenarioSpec, grid: Any, rng: np.random.Generator
) -> Tuple[Dict[str, List[Any]], List[Any]]:
    """Per-cluster local jobs + grid bags for the grid models."""

    kind, params = spec.workload.kind, spec.workload.params
    churn = params.get("churn")
    local: Dict[str, List[Any]] = {}
    bags: List[Any] = []
    if kind == "ciment-communities":
        from repro.workload.communities import community_workload, grid_workload

        jobs_per_community = int(params.get("jobs_per_community", 12))
        local_base = int(params.get("local_seed_base", 10))
        grid_base = int(params.get("grid_seed_base", 50))
        with_bags = bool(params.get("grid_bags", True))
        clusters = sorted(grid, key=lambda c: c.community or c.name)
        for index, cluster in enumerate(clusters):
            local[cluster.name] = community_workload(
                cluster.community, jobs_per_community, cluster.processor_count,
                random_state=local_base + index,
            )
            if with_bags:
                bags.extend(grid_workload(cluster.community, random_state=grid_base + index))
    elif kind == "grid-random":
        from repro.workload.arrivals import poisson_arrivals
        from repro.workload.models import generate_moldable_jobs
        from repro.workload.parametric import generate_parametric_bags

        n_jobs = int(params.get("jobs_per_cluster", 20))
        for cluster in sorted(grid, key=lambda c: c.name):
            jobs = generate_moldable_jobs(
                n_jobs, cluster.processor_count,
                config=_workload_config(params), random_state=rng,
                name_prefix=f"{cluster.name}-local",
            )
            local[cluster.name] = poisson_arrivals(
                jobs, rate=float(params.get("rate", 1.0)), random_state=rng
            )
        n_bags = int(params.get("n_bags", 0))
        if n_bags:
            bags = generate_parametric_bags(
                n_bags,
                runs_range=tuple(params.get("runs_range", (100, 300))),
                run_time_range=tuple(params.get("run_time_range", (0.1, 0.4))),
                random_state=rng,
            )
    else:
        raise SpecError(f"unknown grid workload kind {kind!r}")
    if churn:
        for name in local:
            cluster = grid.cluster(name)
            local[name] = inject_node_churn(
                local[name], cluster.processor_count, churn, rng
            )
    return local, bags


def _grid_centralized_record(spec: ScenarioSpec, seed: int) -> Tuple[Any, Any, List[Any]]:
    """Drive the centralized grid simulator: (record, grid, bags)."""

    from repro.simulation.grid_sim import CentralizedGridSimulator

    rng = np.random.default_rng(seed)
    grid = build_platform(spec.platform, rng)
    local, bags = _grid_submissions(spec, grid, rng)
    simulator = CentralizedGridSimulator(
        grid,
        local_policy=spec.policy.params.get("local_policy", "backfill"),
        best_effort_enabled=bool(spec.policy.params.get("best_effort_enabled", True)),
    )
    return simulator.run(local, bags), grid, bags


def _run_grid_centralized(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    result, grid, bags = _grid_centralized_record(spec, seed)
    metrics: Dict[str, Any] = {
        "node_count": grid.node_count,
        "processor_count": grid.processor_count,
        "cluster_names": sorted(c.name for c in grid),
        "horizon": result.horizon,
        "kills": result.kills,
        "launches": result.launches,
        "total_runs_completed": result.total_runs_completed,
        "expected_runs": sum(bag.n_runs for bag in bags),
        "throughput": result.grid_throughput(),
        "outcome": [
            {
                "cluster": cluster.name,
                "community": cluster.community,
                "local_jobs": result.cluster_criteria[cluster.name].n_jobs,
                "local_makespan_h": result.cluster_criteria[cluster.name].makespan,
                "utilization": result.utilization[cluster.name],
            }
            for cluster in grid
        ],
        "owners_ok": {
            cluster.name: all(
                job.owner == cluster.community
                for job in result.schedules[cluster.name].columns.jobs
            )
            for cluster in grid
        },
    }
    for cluster in grid:
        metrics[f"utilization.{cluster.name}"] = result.utilization[cluster.name]
        metrics[f"local_makespan.{cluster.name}"] = result.cluster_criteria[cluster.name].makespan
    return metrics


def _grid_decentralized_record(spec: ScenarioSpec, seed: int) -> Tuple[Any, Any]:
    """Drive the decentralized grid simulator: (record, grid)."""

    from repro.simulation.decentralized import DecentralizedGridSimulator

    rng = np.random.default_rng(seed)
    grid = build_platform(spec.platform, rng)
    local, _bags = _grid_submissions(spec, grid, rng)
    simulator = DecentralizedGridSimulator(
        grid,
        local_policy=spec.policy.params.get("local_policy", "backfill"),
        imbalance_threshold=float(spec.policy.params.get("imbalance_threshold", 2.0)),
        exchange_enabled=bool(spec.policy.params.get("exchange_enabled", True)),
    )
    return simulator.run(local), grid


def _run_grid_decentralized(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    result, _grid = _grid_decentralized_record(spec, seed)
    metrics: Dict[str, Any] = {
        "makespan": result.makespan,
        "horizon": result.horizon,
        "migrations": result.migrations,
        "migrated_jobs": len(result.migrated_jobs),
        "mean_flow": result.mean_flow,
        "max_flow": result.max_flow,
        "fairness_on_work": result.fairness.fairness_on_work,
        "fairness_on_flow": result.fairness.fairness_on_flow,
    }
    for name, report in sorted(result.criteria.items()):
        metrics[f"local_makespan.{name}"] = report.makespan
    return metrics


def _run_figure2(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    from repro.experiments.figure2 import Figure2Config, run_figure2_point

    config = Figure2Config(
        machine_count=platform_processor_count(
            build_platform(spec.platform, np.random.default_rng(seed))
        ),
        fast_inner=bool(spec.policy.params.get("fast_inner", True)),
        runtime_range=tuple(spec.workload.params.get("runtime_range", (1.0, 50.0))),
    )
    point = run_figure2_point(
        int(spec.workload.params.get("n_tasks", 100)),
        spec.workload.params.get("family", "parallel"),
        config=config,
        seed=seed,
    )
    return point.as_dict()


def _run_dlt(spec: ScenarioSpec, seed: int) -> Dict[str, Any]:
    from repro.core.dlt.multiround import optimize_round_count

    rng = np.random.default_rng(seed)
    platform = build_platform(spec.platform, rng)
    total_load = float(spec.workload.params.get("total_load", 500.0))
    max_rounds = int(spec.policy.params.get("max_rounds", 12))
    best = optimize_round_count(total_load, platform, max_rounds=max_rounds)
    return {
        "rounds": best.rounds,
        "makespan": best.makespan,
        "idle_time": best.idle_time,
        "n_round_loads": len(best.round_loads),
        "n_workers": len(platform.workers),
        "total_load": total_load,
    }


MODEL_RUNNERS: Dict[str, Callable[[ScenarioSpec, int], Dict[str, Any]]] = {
    "offline": _run_offline,
    "cluster-online": _run_cluster_online,
    "grid-centralized": _run_grid_centralized,
    "grid-decentralized": _run_grid_decentralized,
    "figure2": _run_figure2,
    "dlt": _run_dlt,
}

#: Models whose runner has one fixed policy: the only ``policy.kind`` each
#: accepts besides ``default`` (the :meth:`ScenarioSpec.from_dict` fallback).
#: Their runners never read the kind, so any other name would run that one
#: policy under a wrong label.
FIXED_POLICY_KINDS: Dict[str, str] = {
    "figure2": "bicriteria",
    "dlt": "multiround",
    "grid-centralized": "best-effort",
    "grid-decentralized": "exchange",
}


def _accepted_policy_kinds(model: str) -> List[str]:
    """The ``policy.kind`` values the runner of ``model`` reads."""

    if model == "offline":
        return [*sorted(OFFLINE_SCHEDULERS), "default"]
    if model == "cluster-online":
        return [*policy_names(), "switch", "default"]
    return [FIXED_POLICY_KINDS[model], "default"]


def _queue_policy_names(param: str, value: Any) -> List[Any]:
    """The queue-policy names one value of ``policy.<param>`` refers to."""

    if param == "initial":
        return [value]
    if param == "switches":
        if not isinstance(value, (list, tuple)) or not all(
            isinstance(entry, (list, tuple)) and len(entry) == 2 for entry in value
        ):
            raise SpecError(
                f"policy.switches must be a list of [time, policy] pairs, got {value!r}"
            )
        return [name for _time, name in value]
    # local_policy: one name for every cluster, or a cluster -> name map.
    return list(value.values()) if isinstance(value, Mapping) else [value]


def check_policy_kinds(spec: ScenarioSpec) -> None:
    """Reject a policy name the scenario's model cannot run.

    Checks ``policy.kind`` against the kinds the model reads, and every
    queue-policy name in ``policy.initial``, ``policy.switches`` and
    ``policy.local_policy`` against :func:`policy_names`.  An ``offline``
    scenario that releases jobs over time -- through its arrival component
    or through a workload that carries release dates (``swf``,
    ``swf-roundtrip``, and ``community`` unless ``online`` is false) --
    accepts only the kinds that honour release dates.  Both the spec's own
    values and every sweep-axis value are checked, once per scenario,
    before any cell runs.  Raises :class:`SpecError` naming the accepted
    names.
    """

    accepted = _accepted_policy_kinds(spec.model)
    kinds = [spec.policy.kind, *spec.sweep.get("policy.kind", ())]
    for kind in kinds:
        if kind not in accepted:
            raise SpecError(
                f"scenario {spec.name!r}: model {spec.model!r} cannot run "
                f"policy.kind {kind!r}; not one of {accepted}"
            )
    released = _release_sources(spec)
    if spec.model == "offline" and released:
        release_aware = [*RELEASE_AWARE_OFFLINE_KINDS, "default"]
        for kind in kinds:
            if kind not in release_aware:
                raise SpecError(
                    f"scenario {spec.name!r}: policy.kind {kind!r} ignores release "
                    f"dates, but {released[0]} releases jobs over time; "
                    f"the kinds that honour release dates are {release_aware}"
                )
    queue = policy_names()
    for param in ("initial", "switches", "local_policy"):
        values = list(spec.sweep.get(f"policy.{param}", ()))
        if param in spec.policy.params:
            values.append(spec.policy.params[param])
        for value in values:
            for name in _queue_policy_names(param, value):
                if name not in queue:
                    raise SpecError(
                        f"scenario {spec.name!r}: policy.{param} names "
                        f"{name!r}; not one of {queue}"
                    )


#: Workload kinds whose jobs always carry their own release dates.
RELEASING_WORKLOAD_KINDS = ("swf", "swf-roundtrip")


def _release_sources(spec: ScenarioSpec) -> List[str]:
    """What releases the scenario's jobs over time, spec values and axes alike."""

    arrivals = [spec.arrival.kind, *spec.sweep.get("arrival.kind", ())]
    sources = [
        f"arrival {kind!r}" for kind in arrivals if kind not in (*NO_ARRIVAL_KINDS, "offline")
    ]
    workloads = [spec.workload.kind, *spec.sweep.get("workload.kind", ())]
    online = [spec.workload.params.get("online", True), *spec.sweep.get("workload.online", ())]
    for kind in workloads:
        if kind in RELEASING_WORKLOAD_KINDS or (kind == "community" and any(map(bool, online))):
            sources.append(f"workload {kind!r}")
    return sources


#: Models whose runner drives an event simulator and therefore has a
#: :class:`~repro.runtime.record.SimulationRecord` to render as a Gantt.
RECORD_MODELS = ("cluster-online", "grid-centralized", "grid-decentralized")


def build_simulation_record(
    spec: ScenarioSpec,
    seed: Optional[int] = None,
    *,
    smoke: bool = True,
    overrides: Optional[Mapping[str, Any]] = None,
) -> Any:
    """The :class:`~repro.runtime.record.SimulationRecord` of one scenario cell.

    This is what the Gantt explorer renders: the smoke tier is applied by
    default (explorer-sized schedules), the *first* value of every sweep
    axis is folded in (a representative cell), and the model's event
    simulator runs with the cell's deterministic seed.  Only the models in
    :data:`RECORD_MODELS` have a record; anything else raises
    :class:`SpecError`.
    """

    effective = spec.smoke_spec() if smoke else spec
    if overrides:
        effective = effective.with_overrides(overrides)
    if effective.sweep:
        effective = effective.with_overrides(
            {axis: values[0] for axis, values in effective.sweep.items() if values}
        )
    check_policy_kinds(effective)
    cell_seed = effective.seed if seed is None else int(seed)
    model = effective.model
    if model == "cluster-online":
        return _cluster_online_record(effective, cell_seed)
    if model == "grid-centralized":
        record, _grid, _bags = _grid_centralized_record(effective, cell_seed)
        return record
    if model == "grid-decentralized":
        record, _grid = _grid_decentralized_record(effective, cell_seed)
        return record
    raise SpecError(
        f"scenario {spec.name!r} uses model {model!r}, which produces no "
        f"SimulationRecord; Gantt rendering supports: {', '.join(RECORD_MODELS)}"
    )


# ---------------------------------------------------------------------------
# The cell function and the scenario runner
# ---------------------------------------------------------------------------


def run_scenario_cell(seed: int, _spec: ScenarioSpec = None, **overrides: Any) -> Dict[str, Any]:
    """One sweep cell of a scenario (module-level, hence picklable).

    ``overrides`` are the sweep-axis values of this cell (dotted
    ``section.param`` keys); they are folded into the spec before the model
    runner executes.
    """

    if _spec is None:
        raise TypeError("run_scenario_cell requires the _spec keyword")
    spec = _spec.with_overrides(overrides) if overrides else _spec
    runner = MODEL_RUNNERS.get(spec.model)
    if runner is None:
        raise SpecError(f"unknown model {spec.model!r}; known: {sorted(MODEL_RUNNERS)}")
    metrics = runner(spec, seed)
    if spec.metrics:
        missing = [name for name in spec.metrics if name not in metrics]
        if missing and "error" not in metrics:
            raise SpecError(
                f"scenario {spec.name!r}: runner produced no metric(s) {missing}; "
                f"available: {sorted(metrics)}"
            )
        kept = {name: metrics[name] for name in spec.metrics if name in metrics}
        if "error" in metrics:  # captured policy failures survive the filter
            kept["error"] = metrics["error"]
        metrics = kept
    return metrics


def run_scenario(
    spec: ScenarioSpec,
    *,
    smoke: bool = False,
    overrides: Optional[Mapping[str, Any]] = None,
    sweep: Optional[Mapping[str, Sequence[Any]]] = None,
    repetitions: Optional[int] = None,
    executor: ExecutorSpec = None,
    cache: Any = None,
    sink: Any = None,
    listener: Any = None,
    capture_errors: bool = False,
) -> ExperimentResult:
    """Run a scenario's sweep through the experiment harness.

    ``smoke=True`` applies the spec's smoke-tier overrides first (tiny
    sizes, usually one repetition); ``overrides`` / ``sweep`` /
    ``repetitions`` then adjust the effective spec, in that order.  The
    returned :class:`ExperimentResult` is exactly what the equivalent
    hand-wired :func:`run_experiment` call would produce.  ``sink`` is an
    optional :class:`~repro.store.api.RowSink` (or campaign-store directory)
    every completed cell streams into, whatever the executor.  ``listener``
    is an optional :class:`~repro.telemetry.listener.SweepListener`.
    """

    effective = spec.smoke_spec() if smoke else spec
    if overrides:
        effective = effective.with_overrides(overrides)
    if sweep is not None:
        effective = effective.evolve(
            sweep={axis: list(values) for axis, values in sweep.items()}
        )
    if repetitions is not None:
        effective = effective.evolve(repetitions=repetitions)
    check_policy_kinds(effective)
    return run_experiment(
        effective.name,
        functools.partial(run_scenario_cell, _spec=effective),
        effective.sweep,
        repetitions=effective.repetitions,
        base_seed=effective.seed,
        executor=executor,
        cache=cache,
        sink=sink,
        listener=listener,
        capture_errors=capture_errors,
    )


def rows_digest(rows: Sequence[Mapping[str, Any]]) -> str:
    """Deterministic SHA-256 over result rows (same digest <=> same rows)."""

    blob = json.dumps(list(rows), sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


@dataclasses.dataclass
class ScenarioOutcome:
    """Summary of one scenario execution (what the CLI / CI smoke job report)."""

    name: str
    rows: int
    elapsed_seconds: float
    digest: str
    executor: str
    errors: int = 0
    error: str = ""
    #: Cells replayed from the result cache (``cache=`` or
    #: ``REPRO_CACHE_DIR``) instead of being executed, on any executor.
    cache_hits: int = 0
    #: Where the rows were exported (``--out``), empty when not exported.
    rows_path: str = ""
    #: The campaign store the rows streamed into (``--store``), or ``None``.
    #: A live handle, not data -- excluded from :meth:`to_dict`.
    store: Any = dataclasses.field(default=None, repr=False, compare=False)

    def to_dict(self) -> Dict[str, Any]:
        # Not dataclasses.asdict: the store handle is neither serialisable
        # nor part of the outcome's value.
        return {
            "name": self.name,
            "rows": self.rows,
            "elapsed_seconds": self.elapsed_seconds,
            "digest": self.digest,
            "executor": self.executor,
            "errors": self.errors,
            "error": self.error,
            "cache_hits": self.cache_hits,
            "rows_path": self.rows_path,
        }


def summarize(
    spec: ScenarioSpec, result: ExperimentResult, *, store: Any = None
) -> ScenarioOutcome:
    return ScenarioOutcome(
        name=spec.name,
        rows=len(result.rows),
        elapsed_seconds=result.elapsed_seconds,
        digest=rows_digest(result.rows),
        executor=result.executor,
        errors=len(result.errors),
        cache_hits=result.cache_hits,
        store=store,
    )
