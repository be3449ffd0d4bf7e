"""GRID-BESTEFFORT: the centralized best-effort organisation of section 5.2.

Measures, on a 3-cluster light grid with per-community local workloads and a
stream of multi-parametric grid bags:

* the local-job **non-disturbance invariant** ("local users of the clusters
  will not be disturbed by grid jobs"): local start/completion times are
  identical with and without the grid jobs;
* the grid throughput (best-effort runs completed per unit of time) and the
  kill/resubmission overhead ("since there are a large number of relatively
  small runs, the cost of killing one of them is not too big");
* the utilisation gain brought by filling the holes of the local schedules.

The with-grid and without-grid variants run as two cells of the parallel
sweep harness; each cell flattens its simulator outcome (including a
per-job start/completion fingerprint for the non-disturbance check) into
JSON-serialisable metrics.
"""

from __future__ import annotations

import pytest

from repro.experiments.reporting import ascii_table
from repro.platform.generators import homogeneous_cluster
from repro.platform.grid import LightGrid
from repro.simulation.grid_sim import CentralizedGridSimulator
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import generate_moldable_jobs
from repro.workload.parametric import generate_parametric_bags

CLUSTERS = (("alpha", 32), ("beta", 16), ("gamma", 16))


def build_grid():
    return LightGrid(
        "best-effort-grid",
        [homogeneous_cluster(name, procs, community=f"{name}-community")
         for name, procs in CLUSTERS],
    )


def build_workload():
    local = {}
    for index, (name, procs) in enumerate(CLUSTERS):
        jobs = generate_moldable_jobs(20, procs, random_state=index,
                                      name_prefix=f"{name}-local")
        local[name] = poisson_arrivals(jobs, rate=1.0, random_state=index)
    bags = generate_parametric_bags(4, runs_range=(200, 400), run_time_range=(0.2, 0.5),
                                    random_state=9)
    return local, bags


def run_best_effort_cell(seed, grid_jobs):
    """One cell: the simulation with or without the best-effort grid stream."""

    grid = build_grid()
    local, bags = build_workload()
    simulator = CentralizedGridSimulator(grid, local_policy="backfill",
                                         best_effort_enabled=grid_jobs)
    result = simulator.run(local, bags if grid_jobs else [])
    return {
        "utilization": {c.name: result.utilization[c.name] for c in grid},
        "local_makespan": {c.name: result.cluster_criteria[c.name].makespan for c in grid},
        # Per-job (start, completion) times: the non-disturbance fingerprint.
        "local_fingerprint": {
            cluster.name: {
                entry.job.name: [entry.start, entry.completion]
                for entry in result.schedules[cluster.name]
            }
            for cluster in grid
        },
        "total_runs_completed": result.total_runs_completed,
        "expected_runs": sum(bag.n_runs for bag in bags),
        "kills": result.kills,
        "launches": result.launches,
        "throughput": result.grid_throughput() if grid_jobs else 0.0,
    }


def test_centralized_best_effort_grid(run_sweep, report):
    result = run_sweep("grid-best-effort", run_best_effort_cell,
                       {"grid_jobs": (True, False)})
    by_flag = {row["grid_jobs"]: row for row in result.rows}
    with_grid, without_grid = by_flag[True], by_flag[False]

    rows = [
        {
            "cluster": name,
            "util_without_grid": without_grid["utilization"][name],
            "util_with_grid": with_grid["utilization"][name],
            "local_makespan": with_grid["local_makespan"][name],
        }
        for name, _procs in CLUSTERS
    ]
    summary = (
        f"best-effort runs: {with_grid['total_runs_completed']} / "
        f"{with_grid['expected_runs']} completed, kills: {with_grid['kills']}, "
        f"grid throughput: {with_grid['throughput']:.2f} runs per time unit"
    )
    report("GRID-BESTEFFORT: centralized organisation", ascii_table(rows) + "\n" + summary)

    # Non-disturbance invariant: identical local schedules with and without grid jobs.
    for name, _procs in CLUSTERS:
        baseline = without_grid["local_fingerprint"][name]
        disturbed = with_grid["local_fingerprint"][name]
        assert set(baseline) == set(disturbed)
        for job_name, (start, completion) in baseline.items():
            assert disturbed[job_name][0] == pytest.approx(start)
            assert disturbed[job_name][1] == pytest.approx(completion)
    # All grid work eventually completes despite the kills.
    assert with_grid["total_runs_completed"] == with_grid["expected_runs"]
    assert with_grid["launches"] == with_grid["total_runs_completed"] + with_grid["kills"]
    # Filling the holes increases utilisation on every cluster.
    for row in rows:
        assert row["util_with_grid"] >= row["util_without_grid"] - 1e-9
    assert sum(r["util_with_grid"] for r in rows) > sum(r["util_without_grid"] for r in rows)
