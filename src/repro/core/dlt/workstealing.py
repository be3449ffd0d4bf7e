"""Dynamic divisible-load distribution with a work-stealing strategy.

The third distribution mode mentioned in section 2.1 ("dynamically with a
work stealing strategy", citing Blumofe and Leiserson): instead of computing
the shares in advance, the master keeps the load and hands out *chunks* of a
fixed size whenever a worker is idle.  This needs no knowledge of the worker
speeds, at the price of one extra communication (latency) per chunk.

The function below simulates the protocol exactly under the one-port master
model and reports the makespan, the number of chunks served and the per
worker load, so the DLT benchmark can compare it against the static closed
forms on both homogeneous and heterogeneous platforms.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.dlt.platform import DLTPlatform


@dataclass(frozen=True)
class WorkStealingResult:
    """Outcome of a simulated work-stealing distribution."""

    makespan: float
    chunks_served: int
    per_worker_load: Dict[str, float]
    per_worker_chunks: Dict[str, int]
    chunk_size: float

    @property
    def total_load(self) -> float:
        return sum(self.per_worker_load.values())


def work_stealing_distribution(
    total_load: float,
    platform: DLTPlatform,
    *,
    chunk_size: Optional[float] = None,
) -> WorkStealingResult:
    """Simulate chunk-by-chunk dynamic distribution of a divisible load.

    Parameters
    ----------
    total_load:
        Load held by the master.
    chunk_size:
        Size of each chunk handed to an idle worker; the default is 1/(4m) of
        the total load (a few chunks per worker), a common practical choice
        balancing adaptivity against per-chunk latency.
    """

    if total_load <= 0:
        raise ValueError("total_load must be > 0")
    workers = platform.workers
    m = len(workers)
    if chunk_size is None:
        chunk_size = total_load / (4 * m)
    if chunk_size <= 0:
        raise ValueError("chunk_size must be > 0")

    remaining = total_load
    master_free = 0.0
    # Priority queue of (time the worker becomes idle, insertion order, index).
    idle: List[Tuple[float, int, int]] = [(0.0, i, i) for i in range(m)]
    heapq.heapify(idle)
    counter = m
    per_load: Dict[str, float] = {w.name: 0.0 for w in workers}
    per_chunks: Dict[str, int] = {w.name: 0 for w in workers}
    finish: Dict[str, float] = {w.name: 0.0 for w in workers}
    chunks = 0

    while remaining > 1e-12 and idle:
        idle_time, _, index = heapq.heappop(idle)
        worker = workers[index]
        share = min(chunk_size, remaining)
        remaining -= share
        # Request reaches the master when the worker is idle; the transfer
        # waits for the master port.
        comm_start = max(idle_time, master_free)
        comm_end = comm_start + worker.latency + worker.comm_time * share
        master_free = comm_end
        compute_end = comm_end + worker.compute_time * share
        per_load[worker.name] += share
        per_chunks[worker.name] += 1
        finish[worker.name] = compute_end
        chunks += 1
        counter += 1
        heapq.heappush(idle, (compute_end, counter, index))

    makespan = max(finish.values()) if finish else 0.0
    return WorkStealingResult(
        makespan=makespan,
        chunks_served=chunks,
        per_worker_load=per_load,
        per_worker_chunks=per_chunks,
        chunk_size=chunk_size,
    )
