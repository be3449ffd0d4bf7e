"""Unit tests of the steady-state (asymptotic throughput) solution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlt.platform import DLTPlatform, DLTWorker
from repro.core.dlt.steady_state import (
    steady_state_lower_bound_makespan,
    steady_state_throughput,
)


class TestSteadyStateThroughput:
    def test_no_communication_full_compute_rate(self):
        platform = DLTPlatform.homogeneous(4, compute_time=0.5, comm_time=0.0)
        solution = steady_state_throughput(platform)
        assert solution.throughput == pytest.approx(8.0)
        assert not solution.saturated

    def test_port_saturation_limits_throughput(self):
        # Each worker needs 0.5 time of communication per unit: the one-port
        # master cannot feed more than 2 units per time unit regardless of the
        # number of workers.
        platform = DLTPlatform.homogeneous(16, compute_time=1.0, comm_time=0.5)
        solution = steady_state_throughput(platform)
        assert solution.throughput == pytest.approx(2.0)
        assert solution.saturated
        assert solution.port_usage == pytest.approx(1.0)

    def test_bandwidth_centric_priority(self):
        # The fast-link worker is served first even though it computes slowly.
        workers = [
            DLTWorker("fastlink-slowcpu", compute_time=2.0, comm_time=0.1),
            DLTWorker("slowlink-fastcpu", compute_time=0.25, comm_time=1.0),
        ]
        solution = steady_state_throughput(DLTPlatform(workers))
        assert solution.rate_of("fastlink-slowcpu") == pytest.approx(0.5)
        # Remaining port capacity: 1 - 0.5*0.1 = 0.95 -> rate 0.95 for the other.
        assert solution.rate_of("slowlink-fastcpu") == pytest.approx(0.95)

    def test_throughput_never_exceeds_compute_capacity(self):
        platform = DLTPlatform.homogeneous(3, compute_time=1.0, comm_time=0.05)
        solution = steady_state_throughput(platform)
        assert solution.throughput <= platform.total_compute_rate + 1e-9

    def test_lower_bound_makespan(self):
        platform = DLTPlatform.homogeneous(4, compute_time=1.0, comm_time=0.0)
        assert steady_state_lower_bound_makespan(100.0, platform) == pytest.approx(25.0)
        with pytest.raises(ValueError):
            steady_state_lower_bound_makespan(-1.0, platform)


@settings(max_examples=40, deadline=None)
@given(
    compute_times=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1, max_size=10),
    comm=st.floats(min_value=0.0, max_value=2.0),
)
def test_steady_state_respects_both_resource_constraints(compute_times, comm):
    """Property: the returned rates satisfy the worker and port constraints."""

    workers = [DLTWorker(f"w{i}", ct, comm) for i, ct in enumerate(compute_times)]
    platform = DLTPlatform(workers)
    solution = steady_state_throughput(platform)
    port = 0.0
    for worker in workers:
        rate = solution.rate_of(worker.name)
        assert rate >= -1e-12
        assert rate <= worker.compute_rate + 1e-9     # worker not overloaded
        port += rate * worker.comm_time
    assert port <= 1.0 + 1e-9                          # master port not overloaded
    assert solution.throughput == pytest.approx(
        sum(solution.rates.values()), rel=1e-9
    )
