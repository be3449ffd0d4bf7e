"""Single-round divisible-load distribution on a heterogeneous star.

Workers have individual link speeds and latencies ("the complexity becomes
quickly NP-hard with more general network topologies", section 2.1 -- the
hardness comes precisely from latencies and from choosing the participating
set / order).  This module implements:

* the closed-form / linear-system solution of the fractions for a *given*
  transmission order (all participating workers finish simultaneously);
* the classical ordering heuristic (serve workers by non-decreasing link
  time, i.e. fastest links first), which is optimal when there are no
  latencies;
* automatic removal of workers whose optimal share would be negative (with
  large latencies it is better not to use a slow-link worker at all).

The system solved for ``m`` participating workers, fractions ``alpha_i`` and
makespan ``T``::

    sum_{j <= i} (L_j + z_j * alpha_j * W) + w_i * alpha_i * W = T   (i = 1..m)
    sum_i alpha_i = 1

which is linear in ``(alpha_1, ..., alpha_m, T)`` and solved with NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.dlt.platform import DLTPlatform, DLTWorker


@dataclass(frozen=True)
class StarDistribution:
    """Result of a single-round star distribution."""

    order: Tuple[str, ...]
    fractions: Tuple[float, ...]
    loads: Tuple[float, ...]
    makespan: float
    excluded: Tuple[str, ...]

    @property
    def participating(self) -> int:
        return len(self.order)


def _solve_given_order(
    total_load: float, workers: Sequence[DLTWorker]
) -> Optional[Tuple[List[float], float]]:
    """Solve the linear system for a fixed order; None if singular."""

    m = len(workers)
    if m == 0:
        return None
    # Unknowns: alpha_1..alpha_m, T
    a = np.zeros((m + 1, m + 1))
    b = np.zeros(m + 1)
    for i, worker in enumerate(workers):
        for j in range(i + 1):
            a[i, j] += workers[j].comm_time * total_load
        a[i, i] += worker.compute_time * total_load
        a[i, m] = -1.0
        b[i] = -sum(workers[j].latency for j in range(i + 1))
    a[m, :m] = 1.0
    b[m] = 1.0
    try:
        solution = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:
        return None
    fractions = solution[:m].tolist()
    makespan = float(solution[m])
    return fractions, makespan


def star_single_round(
    total_load: float,
    platform: DLTPlatform,
    *,
    order: Optional[Sequence[str]] = None,
) -> StarDistribution:
    """Optimal-fraction single-round distribution on a star platform.

    ``order`` fixes the transmission order explicitly (list of worker names);
    by default workers are served by non-decreasing ``comm_time`` (fastest
    links first), the classical optimal order in the latency-free case.
    Workers whose share would be negative are removed and the system is
    re-solved, so the returned distribution is always feasible.
    """

    if total_load <= 0:
        raise ValueError("total_load must be > 0")
    by_name = {w.name: w for w in platform.workers}
    if order is not None:
        unknown = [name for name in order if name not in by_name]
        if unknown:
            raise ValueError(f"unknown workers in order: {unknown}")
        ordered = [by_name[name] for name in order]
    else:
        # Fastest links first (classical optimal order without latencies);
        # latency is used as a tie-break so that high-startup workers are
        # served last and naturally excluded when they are not worth using.
        ordered = sorted(
            platform.workers,
            key=lambda w: (w.comm_time, w.latency, w.compute_time, w.name),
        )

    excluded: List[str] = []
    current = list(ordered)
    while current:
        solved = _solve_given_order(total_load, current)
        if solved is None:
            # Singular system: drop the slowest-link worker and retry.
            worst = max(current, key=lambda w: (w.comm_time, w.compute_time))
            current.remove(worst)
            excluded.append(worst.name)
            continue
        fractions, makespan = solved
        negative = [i for i, f in enumerate(fractions) if f < -1e-12]
        if not negative:
            loads = [f * total_load for f in fractions]
            return StarDistribution(
                order=tuple(w.name for w in current),
                fractions=tuple(max(0.0, f) for f in fractions),
                loads=tuple(loads),
                makespan=makespan,
                excluded=tuple(excluded),
            )
        # Remove the most negative worker (least useful) and re-solve.
        worst_index = min(negative, key=lambda i: fractions[i])
        excluded.append(current[worst_index].name)
        current.pop(worst_index)
    raise ValueError("no feasible single-round distribution (all workers excluded)")


def best_participating_subset(
    total_load: float, platform: DLTPlatform, *, max_workers: Optional[int] = None
) -> StarDistribution:
    """Greedy search of the best subset of workers (useful with large latencies).

    Workers are added one by one (fastest links first) while the resulting
    makespan keeps decreasing; with latencies, adding a slow worker can hurt,
    which this incremental search detects.
    """

    ordered = sorted(
        platform.workers,
        key=lambda w: (w.comm_time, w.latency, w.compute_time, w.name),
    )
    if max_workers is not None:
        ordered = ordered[:max_workers]
    best: Optional[StarDistribution] = None
    for k in range(1, len(ordered) + 1):
        subset = DLTPlatform(ordered[:k])
        dist = star_single_round(total_load, subset)
        if best is None or dist.makespan < best.makespan - 1e-12:
            best = dist
        else:
            break
    assert best is not None
    return best
