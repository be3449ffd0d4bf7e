"""Golden-digest equivalence: canonical digests of simulator behavior.

Behavior changes must never slip in with a structural or hot-path change.
This module pins behavior with SHA-256 digests over canonical, repr-exact
serializations of

* eight fixed, seeded simulator cases (:data:`SIMULATOR_CASES`): one run of
  each legacy simulator entry point
  (:class:`~repro.simulation.cluster_sim.ClusterSimulator`,
  :class:`~repro.simulation.grid_sim.CentralizedGridSimulator`,
  :class:`~repro.simulation.decentralized.DecentralizedGridSimulator`),
  including the full event trace, plus the paper artefacts: raw event-kernel
  churn, the Figure-2 bi-criteria sweep, an on-line backfill cluster, the
  CIMENT best-effort grid and the DLT multi-round distribution, and
* the result rows of every registered scenario's smoke tier.

``python -m repro.runtime.golden capture [path]`` records the digests of the
current code; ``tests/runtime/test_equivalence.py`` recomputes them and
fails on any drift.  The three legacy-simulator digests in the committed
``tests/runtime/goldens.json`` were captured from the pre-refactor
simulators, so matching them proves the runtime reproduces the legacy event
loops bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List

#: Default location of the committed golden file, relative to the repo root.
DEFAULT_GOLDEN_PATH = "tests/runtime/goldens.json"


def digest_of(payload: Any) -> str:
    """Deterministic SHA-256 over an arbitrary payload (repr for non-JSON)."""

    blob = json.dumps(payload, sort_keys=True, default=repr).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# Canonical serializations
# ---------------------------------------------------------------------------


def schedule_payload(schedule: Any) -> List[Any]:
    """Repr-exact serialization of a :class:`~repro.core.allocation.Schedule`."""

    jobs, starts, runtimes, _, processors, offsets = schedule.columns
    return [
        (job.name, repr(start), processors[lo:hi], repr(runtime))
        for job, start, runtime, lo, hi in zip(jobs, starts, runtimes, offsets, offsets[1:])
    ]


def trace_payload(trace: Any) -> List[Any]:
    """Repr-exact serialization of a :class:`~repro.simulation.tracing.Trace`."""

    return [
        (repr(e.time), e.kind, e.job, e.cluster, list(e.processors), e.info)
        for e in trace
    ]


def cluster_result_payload(result: Any) -> Dict[str, Any]:
    """Canonical payload of a single-cluster simulation result."""

    return {
        "policy": result.policy,
        "machine_count": result.machine_count,
        "schedule": schedule_payload(result.schedule),
        "trace": trace_payload(result.trace),
        "criteria": {k: repr(v) for k, v in result.criteria.as_dict().items()},
        "ratios": {k: repr(v) for k, v in result.ratios.as_dict().items()},
    }


def centralized_result_payload(result: Any) -> Dict[str, Any]:
    """Canonical payload of a centralized (best-effort) grid result."""

    return {
        "horizon": repr(result.horizon),
        "kills": result.kills,
        "launches": result.launches,
        "bag_completion": {k: repr(v) for k, v in sorted(result.bag_completion.items())},
        "runs_completed": dict(sorted(result.runs_completed.items())),
        "utilization": {k: repr(v) for k, v in sorted(result.utilization.items())},
        "schedules": {
            name: schedule_payload(s) for name, s in sorted(result.schedules.items())
        },
        "criteria": {
            name: {k: repr(v) for k, v in c.as_dict().items()}
            for name, c in sorted(result.cluster_criteria.items())
        },
        "trace": trace_payload(result.trace),
    }


def decentralized_result_payload(result: Any) -> Dict[str, Any]:
    """Canonical payload of a decentralized (load-exchange) grid result."""

    return {
        "horizon": repr(result.horizon),
        "migrations": result.migrations,
        "migrated_jobs": list(result.migrated_jobs),
        "mean_flow": repr(result.mean_flow),
        "max_flow": repr(result.max_flow),
        "fairness": {k: repr(v) for k, v in sorted(result.fairness.as_dict().items())},
        "schedules": {
            name: schedule_payload(s) for name, s in sorted(result.schedules.items())
        },
        "criteria": {
            name: {k: repr(v) for k, v in c.as_dict().items()}
            for name, c in sorted(result.criteria.items())
        },
        "trace": trace_payload(result.trace),
    }


# ---------------------------------------------------------------------------
# The three legacy-simulator cases
# ---------------------------------------------------------------------------


def run_cluster_case() -> Dict[str, Any]:
    """Fixed seeded single-cluster run exercising all three queue policies."""

    from repro.simulation.cluster_sim import ClusterSimulator
    from repro.workload.communities import community_workload

    jobs = community_workload("computer-science", 120, 64, random_state=7)
    payload = {}
    for policy in ("fifo", "backfill", "smallest-first"):
        result = ClusterSimulator(64, policy=policy).run(jobs)
        payload[policy] = cluster_result_payload(result)
    return payload


def run_centralized_case() -> Dict[str, Any]:
    """Fixed seeded CIMENT run with best-effort bags, kills and resubmits."""

    from repro.platform.ciment import ciment_grid
    from repro.simulation.grid_sim import CentralizedGridSimulator
    from repro.workload.communities import community_workload, grid_workload

    grid = ciment_grid()
    local = {}
    bags = []
    for index, cluster in enumerate(sorted(grid, key=lambda c: c.name)):
        local[cluster.name] = community_workload(
            cluster.community, 6, cluster.processor_count, random_state=100 + index
        )
        bags.extend(grid_workload(cluster.community, random_state=200 + index))
    result = CentralizedGridSimulator(grid, local_policy="backfill").run(local, bags)
    return centralized_result_payload(result)


def run_decentralized_case() -> Dict[str, Any]:
    """Fixed seeded two-cluster run with migrations under load imbalance."""

    from repro.platform.generators import homogeneous_cluster
    from repro.platform.grid import GridLink, LightGrid
    from repro.simulation.decentralized import DecentralizedGridSimulator
    from repro.workload.arrivals import poisson_arrivals
    from repro.workload.models import generate_moldable_jobs

    grid = LightGrid(
        "golden-duo",
        [
            homogeneous_cluster("busy", 8, community="busy-community"),
            homogeneous_cluster("idle", 8, community="idle-community"),
        ],
        [GridLink("busy", "idle", bandwidth=1000.0, latency=0.01)],
    )
    jobs = generate_moldable_jobs(40, 8, random_state=11)
    jobs = poisson_arrivals(jobs, rate=4.0, random_state=11)
    simulator = DecentralizedGridSimulator(grid, imbalance_threshold=1.0)
    result = simulator.run({"busy": jobs, "idle": []})
    return decentralized_result_payload(result)


# ---------------------------------------------------------------------------
# The paper-artefact cases
# ---------------------------------------------------------------------------


def run_kernel_churn_case() -> Dict[str, Any]:
    """Self-rescheduling timer chains hammering the event queue.

    64 concurrent callbacks each reschedule themselves with seeded
    pseudo-random delays quantised to 0.25 time units, so many events tie on
    the same timestamp and the (time, priority, seq) tie-break, cancellation
    and same-time dispatch paths are all exercised.  Every chain also
    schedules-and-cancels a decoy event each step.
    """

    from repro.simulation.engine import Simulator

    chains = 64
    sim = Simulator()
    rng = random.Random(20040426)
    delays = [round(rng.random() * 16.0) * 0.25 + 0.25 for _ in range(1024)]
    per_chain = 60_000 // chains
    checksum: List[float] = []
    fired = [0]

    def make_chain(index: int) -> Callable[[], None]:
        remaining = [per_chain]

        def tick() -> None:
            fired[0] += 1
            if fired[0] % 97 == 0:
                checksum.append(sim.now)
            remaining[0] -= 1
            if remaining[0] > 0:
                slot = (index * 31 + remaining[0]) % 1024
                decoy = sim.schedule(delays[(slot + 7) % 1024], _never)
                sim.cancel(decoy)
                sim.schedule(delays[slot], tick, priority=index % 3)

        return tick

    def _never() -> None:  # cancelled decoys must not fire
        raise AssertionError("cancelled event fired")

    for index in range(chains):
        sim.schedule(delays[index % 1024], make_chain(index), priority=index % 3)
    sim.run()
    return {
        "now": repr(sim.now),
        "fired": fired[0],
        "checksum": [repr(v) for v in checksum],
    }


def run_figure2_case() -> List[Any]:
    """The Figure-2 bi-criteria sweep (both families, n = 50 and 100)."""

    from repro.experiments.figure2 import Figure2Config, run_figure2

    config = Figure2Config(task_counts=(50, 100), repetitions=1)
    # Pin the serial executor so a REPRO_JOBS setting cannot fan it out.
    points = run_figure2(config, executor="serial")
    return [
        (p.family, p.n_tasks, p.seed, repr(p.wici_ratio), repr(p.cmax_ratio))
        for p in points
    ]


def run_online_cluster_case() -> Dict[str, Any]:
    """An on-line 64-processor cluster under the backfill queue policy."""

    from repro.simulation.cluster_sim import ClusterSimulator
    from repro.workload.communities import community_workload

    jobs = community_workload("computer-science", 300, 64, random_state=7)
    result = ClusterSimulator(64, policy="backfill").run(jobs)
    return {
        "makespan": repr(result.criteria.makespan),
        "trace": [
            (repr(e.time), e.kind, e.job, e.processors) for e in result.trace
        ],
    }


def run_ciment_grid_case() -> Dict[str, Any]:
    """The centralized CIMENT grid of section 5.2 (fill, kills, resubmits)."""

    from repro.platform.ciment import ciment_grid
    from repro.simulation.grid_sim import CentralizedGridSimulator
    from repro.workload.communities import community_workload, grid_workload

    grid = ciment_grid()
    local = {}
    bags = []
    for index, cluster in enumerate(sorted(grid, key=lambda c: c.name)):
        local[cluster.name] = community_workload(
            cluster.community, 12, cluster.processor_count, random_state=100 + index
        )
        bags.extend(grid_workload(cluster.community, random_state=200 + index))
    result = CentralizedGridSimulator(grid, local_policy="backfill").run(local, bags)
    return {
        "horizon": repr(result.horizon),
        "kills": result.kills,
        "launches": result.launches,
        "runs_completed": sorted(result.runs_completed.items()),
        "trace": [
            (repr(e.time), e.kind, e.job, e.cluster, e.processors, e.info)
            for e in result.trace
        ],
    }


def run_dlt_multiround_case() -> Dict[str, Any]:
    """DLT multi-round distribution over 32 workers, optimized round count."""

    from repro.core.dlt.multiround import optimize_round_count
    from repro.core.dlt.platform import DLTPlatform, DLTWorker

    workers = [
        DLTWorker(
            name=f"w{i:03d}",
            compute_time=1.0 + 0.07 * (i % 5),
            comm_time=0.01 + 0.003 * (i % 7),
            latency=0.05 * (i % 3),
        )
        for i in range(32)
    ]
    best = optimize_round_count(500.0, DLTPlatform(workers), max_rounds=12)
    return {
        "rounds": best.rounds,
        "makespan": repr(best.makespan),
        "round_loads": [repr(v) for v in best.round_loads],
        "idle_time": repr(best.idle_time),
    }


SIMULATOR_CASES = {
    "cluster": run_cluster_case,
    "grid-centralized": run_centralized_case,
    "grid-decentralized": run_decentralized_case,
    "kernel.churn": run_kernel_churn_case,
    "cluster.figure2": run_figure2_case,
    "cluster.online": run_online_cluster_case,
    "grid.ciment": run_ciment_grid_case,
    "dlt.multiround": run_dlt_multiround_case,
}


def simulator_digests() -> Dict[str, str]:
    """Digest of each canonical simulator case."""

    return {name: digest_of(case()) for name, case in SIMULATOR_CASES.items()}


def scenario_digests(names: Any = None, *, executor: Any = None) -> Dict[str, str]:
    """Smoke-tier row digests of the registered scenarios.

    ``names=None`` runs every registered scenario; a golden comparison
    should pass the names stored in the golden file so newly registered
    scenarios do not need retroactive goldens.
    """

    import repro.scenarios as scenarios
    from repro.scenarios.composer import rows_digest, run_scenario

    digests = {}
    for name in names if names is not None else scenarios.names():
        spec = scenarios.get(name)
        result = run_scenario(spec, smoke=True, executor=executor)
        digests[name] = rows_digest(result.rows)
    return digests


def capture() -> Dict[str, Any]:
    """Compute the full golden payload for the current code."""

    return {
        "simulators": simulator_digests(),
        "scenarios": scenario_digests(),
    }


def main(argv: Any = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] != "capture":
        print("usage: python -m repro.runtime.golden capture [path]", file=sys.stderr)
        return 2
    path = Path(argv[1] if len(argv) > 1 else DEFAULT_GOLDEN_PATH)
    payload = capture()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    total = len(payload["simulators"]) + len(payload["scenarios"])
    print(f"wrote {total} golden digests to {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
