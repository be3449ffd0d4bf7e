"""Unit tests of machines, clusters, grids and the CIMENT platform."""

import math

import pytest

from repro.platform.ciment import ciment_grid
from repro.platform.cluster import Cluster, Interconnect
from repro.platform.generators import (
    heterogeneous_cluster,
    homogeneous_cluster,
    random_light_grid,
)
from repro.platform.grid import GridLink, LightGrid
from repro.platform.machine import Machine


class TestMachine:
    def test_effective_runtime(self):
        machine = Machine("n0", speed=2.0, cores=2)
        assert machine.effective_runtime(10.0) == 5.0
        assert machine.compute_rate == 4.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Machine("n0", speed=0.0)
        with pytest.raises(ValueError):
            Machine("n0", cores=0)
        with pytest.raises(ValueError):
            Machine("n0", memory_gb=0.0)
        with pytest.raises(ValueError):
            Machine("n0").effective_runtime(-1.0)

    @pytest.mark.parametrize("speed", [math.nan, math.inf])
    def test_non_finite_speed_rejected(self, speed):
        with pytest.raises(ValueError, match="speed must be finite"):
            Machine("n0", speed=speed)


class TestInterconnect:
    def test_transfer_time(self):
        net = Interconnect("eth", bandwidth=100.0, latency=0.01)
        assert net.transfer_time(50.0) == pytest.approx(0.51)
        assert net.transfer_time(0.0) == 0.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            Interconnect(bandwidth=0.0)
        with pytest.raises(ValueError):
            Interconnect(latency=-1.0)
        with pytest.raises(ValueError):
            Interconnect().transfer_time(-1.0)


class TestCluster:
    def test_counts_and_speeds(self):
        machines = [Machine(f"n{i}", speed=1.0 + i, cores=2) for i in range(3)]
        cluster = Cluster("c", machines, community="phys")
        assert cluster.node_count == 3
        assert cluster.processor_count == 6
        assert cluster.total_compute_rate == pytest.approx(2 * (1 + 2 + 3))
        assert cluster.processor_speeds() == [1.0, 1.0, 2.0, 2.0, 3.0, 3.0]
        assert cluster.processor_machine(3).name == "n1"
        assert not cluster.is_homogeneous()
        assert cluster.slowest_speed() == 1.0
        assert cluster.fastest_speed() == 3.0
        assert cluster.describe()["community"] == "phys"

    def test_invalid(self):
        with pytest.raises(ValueError):
            Cluster("c", [])
        with pytest.raises(ValueError):
            Cluster("c", [Machine("x"), Machine("x")])
        cluster = Cluster("c", [Machine("x")])
        with pytest.raises(IndexError):
            cluster.processor_machine(5)


class TestLightGrid:
    def test_lookup_and_sizes(self):
        grid = LightGrid(
            "g",
            [homogeneous_cluster("a", 4), homogeneous_cluster("b", 8)],
            [GridLink("a", "b", bandwidth=50.0, latency=0.1)],
        )
        assert len(grid) == 2
        assert grid.processor_count == 12
        assert grid.cluster("a").processor_count == 4
        assert grid.largest_cluster().name == "b"
        with pytest.raises(KeyError):
            grid.cluster("ghost")

    def test_links_and_transfer_times(self):
        grid = LightGrid(
            "g",
            [homogeneous_cluster("a", 4), homogeneous_cluster("b", 8),
             homogeneous_cluster("c", 2)],
            [GridLink("a", "b", bandwidth=50.0, latency=0.1)],
        )
        assert grid.link("a", "b").bandwidth == 50.0
        assert grid.link("b", "a").bandwidth == 50.0      # symmetric completion
        # Missing links fall back to the grid defaults.
        default = grid.link("a", "c")
        assert default.bandwidth == grid.default_bandwidth
        assert grid.transfer_time("a", "a", 100.0) == 0.0
        assert grid.transfer_time("a", "b", 50.0) == pytest.approx(0.1 + 1.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            LightGrid("g", [])
        with pytest.raises(ValueError):
            LightGrid("g", [homogeneous_cluster("a", 2), homogeneous_cluster("a", 2)])
        with pytest.raises(ValueError):
            LightGrid("g", [homogeneous_cluster("a", 2)], [GridLink("a", "ghost")])
        with pytest.raises(ValueError):
            GridLink("a", "a")

    def test_summary_mentions_every_cluster(self):
        grid = random_light_grid(n_clusters=3, random_state=1)
        text = grid.summary()
        for name in grid.cluster_names:
            assert name in text


class TestCimentGrid:
    def test_figure3_cluster_inventory(self):
        """The grid reproduces exactly the four clusters of Figure 3."""

        grid = ciment_grid()
        counts = {c.name: c.node_count for c in grid}
        assert counts == {
            "icluster-itanium": 104,
            "xeon-cluster": 48,
            "athlon-cluster-a": 40,
            "athlon-cluster-b": 24,
        }
        # All nodes are bi-processors: 216 nodes, 432 processors.
        assert grid.node_count == 216
        assert grid.processor_count == 432

    def test_extra_workstations_reach_the_600_machine_scale(self):
        grid = ciment_grid(extra_workstations=400)
        assert grid.node_count == 616
        assert "workstation-pool" in grid.cluster_names

    def test_communities_are_distinct(self):
        grid = ciment_grid()
        communities = {c.community for c in grid}
        assert len(communities) == 4

    def test_interconnect_hierarchy(self):
        grid = ciment_grid()
        itanium = grid.cluster("icluster-itanium")
        athlon = grid.cluster("athlon-cluster-a")
        # Myrinet is faster than 100 Mb ethernet, as on Figure 3.
        assert itanium.interconnect.bandwidth > athlon.interconnect.bandwidth


class TestGenerators:
    def test_homogeneous_cluster(self):
        cluster = homogeneous_cluster("c", 100)
        assert cluster.processor_count == 100
        assert cluster.is_homogeneous()
        with pytest.raises(ValueError):
            homogeneous_cluster("c", 10, cores_per_node=3)

    def test_heterogeneous_cluster_speed_range(self):
        cluster = heterogeneous_cluster("h", 50, speed_range=(0.5, 2.0), random_state=3)
        assert cluster.node_count == 50
        assert 0.5 <= cluster.slowest_speed() <= cluster.fastest_speed() <= 2.0

    def test_random_light_grid_reproducible(self):
        g1 = random_light_grid(n_clusters=4, random_state=42)
        g2 = random_light_grid(n_clusters=4, random_state=42)
        assert [c.processor_count for c in g1] == [c.processor_count for c in g2]
        assert g1.processor_count > 0

    def test_invalid_generator_arguments(self):
        with pytest.raises(ValueError):
            homogeneous_cluster("c", 0)
        with pytest.raises(ValueError):
            heterogeneous_cluster("h", 0)
        with pytest.raises(ValueError):
            heterogeneous_cluster("h", 4, speed_range=(2.0, 1.0))
        with pytest.raises(ValueError):
            random_light_grid(n_clusters=0)
