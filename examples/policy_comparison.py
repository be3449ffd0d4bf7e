#!/usr/bin/env python3
"""Which policy for which application?

The title question of the paper: different applications (workload shapes) and
different objectives call for different scheduling policies.  This example
runs a panel of policies on three application profiles and prints, for each
criterion, which policy wins -- reproducing the qualitative message of the
paper:

* makespan-oriented moldable scheduling  -> MRT dual approximation,
* (weighted) average completion time     -> SMART shelves / WSPT ordering,
* both at once                           -> the bi-criteria doubling batches,
* on-line arrival streams                -> batch transform / backfilling,
* bags of small independent runs         -> divisible-load style policies
  (see examples/divisible_load.py and the grid examples).

Each application profile is a declarative :class:`ScenarioSpec` built right
here (specs do not have to be registered to run), and the policy panel is a
sweep axis over ``policy.kind``: the composer hands every (application,
policy) cell to the parallel experiment harness, so ``REPRO_JOBS=4`` fans
the panel out to a forked fleet of four workers with identical results.

Run with:  python examples/policy_comparison.py
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.policies.registry import RELEASE_AWARE_OFFLINE_KINDS
from repro.experiments.reporting import ascii_table
from repro.scenarios import ComponentSpec, ScenarioSpec, run_scenario

MACHINES = 64

POLICY_PANEL = [
    "lpt",
    "wspt",
    "smart-shelves",
    "mrt",
    "bicriteria",
    "batch-mrt",
    "conservative-bf",
    "easy-bf",
]

#: The panel members that honour release dates: the only ones that can
#: schedule a stream of jobs arriving over time (the others would start
#: jobs before they arrive, which the composer rejects).
STREAM_PANEL = [kind for kind in POLICY_PANEL if kind in RELEASE_AWARE_OFFLINE_KINDS]

#: Three application profiles inspired by the CIMENT communities, as specs.
APPLICATIONS: Dict[str, ScenarioSpec] = {
    # Off-line moldable batch (e.g. a campaign of numerical simulations).
    "moldable-batch": ScenarioSpec(
        name="panel.moldable-batch",
        model="offline",
        platform=ComponentSpec("count", {"machine_count": MACHINES}),
        workload=ComponentSpec("moldable", {"n_jobs": 60, "weight_scheme": "work"}),
        policy=ComponentSpec("lpt", {"capture_errors": True}),
        metrics=("policy_name", "makespan", "makespan_ratio",
                 "weighted_completion_ratio", "mean_stretch"),
        repetitions=1,
        seed=1,
        sweep={"policy.kind": POLICY_PANEL},
    ),
    # Rigid production jobs with priorities (weighted completion time matters).
    "rigid-weighted": ScenarioSpec(
        name="panel.rigid-weighted",
        model="offline",
        platform=ComponentSpec("count", {"machine_count": MACHINES}),
        workload=ComponentSpec("rigid", {"n_jobs": 80, "weight_scheme": "random"}),
        policy=ComponentSpec("lpt", {"capture_errors": True}),
        metrics=("policy_name", "makespan", "makespan_ratio",
                 "weighted_completion_ratio", "mean_stretch"),
        repetitions=1,
        seed=2,
        sweep={"policy.kind": POLICY_PANEL},
    ),
    # On-line stream of interactive / debug jobs (stretch matters).
    "online-stream": ScenarioSpec(
        name="panel.online-stream",
        model="offline",
        platform=ComponentSpec("count", {"machine_count": MACHINES}),
        workload=ComponentSpec("moldable", {"n_jobs": 60, "runtime_range": [0.5, 10.0]}),
        arrival=ComponentSpec("poisson", {"rate": 2.0}),
        policy=ComponentSpec("bicriteria", {"capture_errors": True}),
        metrics=("policy_name", "makespan", "makespan_ratio",
                 "weighted_completion_ratio", "mean_stretch"),
        repetitions=1,
        seed=3,
        sweep={"policy.kind": STREAM_PANEL},
    ),
}


def main() -> None:
    for application, spec in APPLICATIONS.items():
        result = run_scenario(spec)
        rows: list[Dict[str, Any]] = []
        for row in result.rows:
            keep = {k: row[k] for k in spec.metrics if k in row}
            if "error" in row:
                keep["error"] = row["error"]
            rows.append(keep)
        n_jobs = spec.workload.params["n_jobs"]
        print(ascii_table(rows, title=f"\n=== application: {application} "
                                      f"({n_jobs} jobs, {MACHINES} processors) ==="))
        numeric = [r for r in rows if "makespan" in r]
        best_cmax = min(numeric, key=lambda r: r["makespan"])["policy_name"]
        best_wc = min(numeric, key=lambda r: r["weighted_completion_ratio"])["policy_name"]
        best_stretch = min(numeric, key=lambda r: r["mean_stretch"])["policy_name"]
        print(f"  best makespan            : {best_cmax}")
        print(f"  best weighted completion : {best_wc}")
        print(f"  best mean stretch        : {best_stretch}")


if __name__ == "__main__":
    main()
