"""The CIMENT / CiGri platform (Figure 3 of the paper).

Figure 3 shows "the 4 largest clusters of the CIMENT project":

* 104 bi-Itanium 2 nodes connected by Myrinet,
* 48 bi-P4 Xeon nodes connected by Gigabit Ethernet,
* 40 bi-Athlon nodes connected by 100 Mb Ethernet,
* 24 bi-Athlon nodes connected by 100 Mb Ethernet,

all reachable from a set of submission queues.  The whole CIMENT project
"gathered more than 500 machines" (600 in the abstract) across the academic
computing resources of Grenoble; the four clusters above are the ones
modelled explicitly here, the remaining machines can be added through the
``extra_workstations`` parameter as a fifth, loosely-coupled pool (global
computing style).

Relative speeds are rough estimates of the 2003-era hardware (the experiments
only depend on their ratios): Itanium 2 nodes are the fastest, the Athlon
clusters the slowest.  Each node is a bi-processor (2 cores).
"""

from __future__ import annotations

from typing import List, Tuple

from repro.platform.cluster import Cluster, Interconnect
from repro.platform.grid import GridLink, LightGrid
from repro.platform.machine import Machine

#: Static description of the four clusters of Figure 3:
#: (name, node count, cores per node, relative speed, interconnect name,
#:  bandwidth, community)
CIMENT_CLUSTERS: Tuple[Tuple[str, int, int, float, str, float, str], ...] = (
    ("icluster-itanium", 104, 2, 1.30, "myrinet", 2000.0, "computer-science"),
    ("xeon-cluster", 48, 2, 1.00, "gigabit-ethernet", 1000.0, "numerical-physics"),
    ("athlon-cluster-a", 40, 2, 0.75, "ethernet-100", 100.0, "astrophysics"),
    ("athlon-cluster-b", 24, 2, 0.75, "ethernet-100", 100.0, "medical-research"),
)


def _build_cluster(
    name: str,
    nodes: int,
    cores: int,
    speed: float,
    interconnect_name: str,
    bandwidth: float,
    community: str,
) -> Cluster:
    machines = [
        Machine(name=f"{name}-{i:03d}", speed=speed, cores=cores) for i in range(nodes)
    ]
    return Cluster(
        name,
        machines,
        Interconnect(name=interconnect_name, bandwidth=bandwidth, latency=1e-4),
        community=community,
    )


def ciment_grid(
    *,
    extra_workstations: int = 0,
    workstation_speed: float = 0.5,
) -> LightGrid:
    """Build the CIMENT light grid of Figure 3.

    Parameters
    ----------
    extra_workstations:
        Number of additional desktop machines to add as a fifth
        ``"workstation-pool"`` cluster, to approach the "more than 600
        machines" of the CiGri project.  0 (the default) reproduces exactly
        the four clusters of Figure 3 (216 nodes, 432 processors).
    workstation_speed:
        Relative speed of the extra workstations.
    """

    clusters: List[Cluster] = [
        _build_cluster(*spec) for spec in CIMENT_CLUSTERS
    ]
    if extra_workstations > 0:
        machines = [
            Machine(name=f"workstation-{i:03d}", speed=workstation_speed, cores=1)
            for i in range(extra_workstations)
        ]
        clusters.append(
            Cluster(
                "workstation-pool",
                machines,
                Interconnect(name="campus-ethernet", bandwidth=10.0, latency=1e-3),
                community="global-computing",
            )
        )
    # Wide-area links: the clusters are on the same campus-area network,
    # modelled as pairwise links of identical capacity.
    names = [c.name for c in clusters]
    links = [
        GridLink(a, b, bandwidth=100.0, latency=1e-3)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
    ]
    return LightGrid("ciment", clusters, links)
