"""FIG1-GRID: Figure 1 -- "A light grid".

Figure 1 is an architecture sketch: a few clusters in the same geographical
area, each with its own submission queue, connected by a campus network.  The
benchmark builds a random light grid with the structure of the figure (highly
heterogeneous between clusters, weakly heterogeneous inside), runs a mixed
local + grid workload through the centralized simulator and reports the
per-cluster utilisation -- the quantity the light-grid design is meant to
improve ("leading to an overall better use of these resources").  The
simulation runs as one cell of the parallel sweep harness: the returned
metrics are flat (and JSON-serialisable, so the cell caches) rather than the
raw simulator objects.
"""

from __future__ import annotations


from repro.experiments.reporting import ascii_table
from repro.platform.generators import random_light_grid
from repro.simulation.grid_sim import CentralizedGridSimulator
from repro.workload.arrivals import poisson_arrivals
from repro.workload.models import generate_moldable_jobs
from repro.workload.parametric import generate_parametric_bags


def run_fig1_cell(seed):
    """Build the light grid, simulate, and flatten the outcome to metrics."""

    grid = random_light_grid(n_clusters=3, nodes_range=(20, 60), cores_per_node=2,
                             random_state=1, name="figure1-light-grid")
    local = {}
    for index, cluster in enumerate(grid):
        jobs = generate_moldable_jobs(15, cluster.processor_count,
                                      random_state=100 + index,
                                      name_prefix=f"{cluster.name}-job")
        local[cluster.name] = poisson_arrivals(jobs, rate=2.0, random_state=200 + index)
    bags = generate_parametric_bags(2, runs_range=(100, 200), run_time_range=(0.2, 0.5),
                                    random_state=3)
    simulator = CentralizedGridSimulator(grid, local_policy="backfill")
    result = simulator.run(local, bags)
    return {
        "clusters": [
            {
                "cluster": cluster.name,
                "nodes": cluster.node_count,
                "processors": cluster.processor_count,
                "interconnect": cluster.interconnect.name,
                "utilization": result.utilization[cluster.name],
                "local_makespan": result.cluster_criteria[cluster.name].makespan,
            }
            for cluster in grid
        ],
        "n_clusters": len(grid),
        "grid_processors": grid.processor_count,
        "runs_completed": dict(result.runs_completed),
        "total_runs_completed": result.total_runs_completed,
        "grid_summary": grid.summary(),
    }


def test_figure1_light_grid_structure_and_utilization(run_sweep, report):
    result = run_sweep("fig1-light-grid", run_fig1_cell)
    row = result.rows[0]
    cluster_rows = row["clusters"]

    report("Figure 1: a light grid (3 clusters + submission queues)",
           row["grid_summary"] + "\n\n" + ascii_table(cluster_rows))

    # Structure of Figure 1: a few clusters, each with its own queue.
    assert 2 <= row["n_clusters"] <= 5
    assert row["grid_processors"] == sum(c["processors"] for c in cluster_rows)
    # Every local workload completed and the grid bags were executed.
    assert row["total_runs_completed"] == sum(row["runs_completed"].values())
    assert all(row["runs_completed"].values())
    # Best-effort filling keeps the clusters busy without disturbing local jobs.
    assert all(0.0 < c["utilization"] <= 1.0 + 1e-9 for c in cluster_rows)
