"""Unit tests of the dynamic (work-stealing) divisible-load distribution."""

import pytest

from repro.core.dlt.bus import bus_single_round
from repro.core.dlt.platform import DLTPlatform, DLTWorker
from repro.core.dlt.workstealing import work_stealing_distribution


class TestWorkStealing:
    def test_load_conservation(self):
        platform = DLTPlatform.homogeneous(4, compute_time=1.0, comm_time=0.05)
        result = work_stealing_distribution(100.0, platform)
        assert result.total_load == pytest.approx(100.0)
        assert sum(result.per_worker_chunks.values()) == result.chunks_served

    def test_chunk_count_matches_chunk_size(self):
        platform = DLTPlatform.homogeneous(2, compute_time=1.0, comm_time=0.0)
        result = work_stealing_distribution(100.0, platform, chunk_size=10.0)
        assert result.chunks_served == 10

    def test_adapts_to_heterogeneous_speeds_without_knowing_them(self):
        workers = [DLTWorker("fast", 0.25, 0.0), DLTWorker("slow", 1.0, 0.0)]
        result = work_stealing_distribution(100.0, DLTPlatform(workers), chunk_size=1.0)
        # The fast worker should end up with roughly 4x the load of the slow one.
        assert result.per_worker_load["fast"] > 2.5 * result.per_worker_load["slow"]

    def test_close_to_optimal_with_small_chunks_and_free_comm(self):
        platform = DLTPlatform.homogeneous(4, compute_time=1.0, comm_time=0.0)
        result = work_stealing_distribution(100.0, platform, chunk_size=0.5)
        assert result.makespan <= 25.0 + 0.5 + 1e-9

    def test_latency_makes_small_chunks_expensive(self):
        platform = DLTPlatform.homogeneous(4, compute_time=1.0, comm_time=0.01, latency=1.0)
        small = work_stealing_distribution(100.0, platform, chunk_size=1.0)
        large = work_stealing_distribution(100.0, platform, chunk_size=12.5)
        assert large.makespan < small.makespan

    def test_never_much_worse_than_static_optimal_on_a_bus(self):
        platform = DLTPlatform.homogeneous(6, compute_time=1.0, comm_time=0.02)
        static = bus_single_round(120.0, platform)
        dynamic = work_stealing_distribution(120.0, platform)
        # One chunk per worker of slack at most.
        assert dynamic.makespan <= static.makespan + 2 * dynamic.chunk_size

    def test_invalid_parameters(self):
        platform = DLTPlatform.homogeneous(2)
        with pytest.raises(ValueError):
            work_stealing_distribution(0.0, platform)
        with pytest.raises(ValueError):
            work_stealing_distribution(10.0, platform, chunk_size=0.0)
