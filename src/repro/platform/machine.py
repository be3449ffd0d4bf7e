"""A single machine (node) of a cluster.

The paper's platforms are built from "SMP or simple PC machines": a node has
a number of processors (cores) and a speed.  Speeds are *relative*: a speed
of 1.0 is the reference processor; a job whose runtime profile says 10 time
units runs in ``10 / speed`` units on a node of the given speed.  This is the
classical *uniform processors* model the paper mentions for handling
heterogeneity ("The heterogeneity of computational units or communication
links can also be considered by uniform or unrelated processors").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Machine:
    """A physical node.

    Parameters
    ----------
    name:
        Unique name within its cluster (e.g. ``"node-017"``).
    speed:
        Relative processor speed (1.0 = reference).  Execution times of jobs
        are divided by this factor when running on this machine.
    cores:
        Number of processors on the node (2 for the bi-processor CIMENT
        nodes).
    memory_gb:
        Optional memory capacity, used by admission filters in the grid
        simulators (jobs may declare memory constraints that impose a
        minimal number of nodes).
    """

    name: str
    speed: float = 1.0
    cores: int = 1
    memory_gb: Optional[float] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.speed):
            raise ValueError(f"machine {self.name!r}: speed must be finite")
        if self.speed <= 0:
            raise ValueError(f"machine {self.name!r}: speed must be > 0")
        if self.cores < 1:
            raise ValueError(f"machine {self.name!r}: cores must be >= 1")
        if self.memory_gb is not None and self.memory_gb <= 0:
            raise ValueError(f"machine {self.name!r}: memory must be > 0")

    def effective_runtime(self, reference_runtime: float) -> float:
        """Runtime of a task on this machine given its reference runtime."""

        if reference_runtime < 0:
            raise ValueError("reference_runtime must be >= 0")
        return reference_runtime / self.speed

    @property
    def compute_rate(self) -> float:
        """Work units per time unit delivered by the whole node (all cores)."""

        return self.speed * self.cores
