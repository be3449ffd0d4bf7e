"""Unit tests of the heterogeneous star single-round distribution."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dlt.bus import bus_single_round
from repro.core.dlt.platform import DLTPlatform, DLTWorker
from repro.core.dlt.star import (
    best_participating_subset,
    star_single_round,
)


class TestStarSingleRound:
    def test_matches_bus_closed_form_on_identical_links(self):
        platform = DLTPlatform.homogeneous(5, compute_time=1.2, comm_time=0.1)
        star = star_single_round(80.0, platform)
        bus = bus_single_round(80.0, platform)
        assert star.makespan == pytest.approx(bus.makespan, rel=1e-9)

    def test_fractions_sum_to_one(self):
        workers = [DLTWorker("a", 1.0, 0.05), DLTWorker("b", 2.0, 0.1),
                   DLTWorker("c", 0.5, 0.2)]
        result = star_single_round(42.0, DLTPlatform(workers))
        assert sum(result.fractions) == pytest.approx(1.0)
        assert sum(result.loads) == pytest.approx(42.0)

    def test_default_order_is_fastest_link_first(self):
        workers = [DLTWorker("slowlink", 1.0, 0.5), DLTWorker("fastlink", 1.0, 0.01)]
        result = star_single_round(10.0, DLTPlatform(workers))
        assert result.order[0] == "fastlink"

    def test_fastest_link_first_is_no_worse_than_reverse_order(self):
        workers = [DLTWorker("a", 1.0, 0.01), DLTWorker("b", 1.0, 0.2),
                   DLTWorker("c", 1.0, 0.4)]
        platform = DLTPlatform(workers)
        good = star_single_round(30.0, platform, order=["a", "b", "c"]).makespan
        bad = star_single_round(30.0, platform, order=["c", "b", "a"]).makespan
        assert good <= bad + 1e-9

    def test_explicit_order_with_unknown_worker_rejected(self):
        platform = DLTPlatform.homogeneous(2)
        with pytest.raises(ValueError):
            star_single_round(10.0, platform, order=["worker-0", "ghost"])

    def test_worker_with_huge_latency_gets_excluded(self):
        workers = [
            DLTWorker("good", compute_time=1.0, comm_time=0.01, latency=0.0),
            DLTWorker("awful", compute_time=1.0, comm_time=0.01, latency=10_000.0),
        ]
        result = star_single_round(10.0, DLTPlatform(workers))
        assert "awful" in result.excluded
        assert result.order == ("good",)
        assert result.makespan < 100.0

    def test_latency_increases_makespan(self):
        base = DLTPlatform([DLTWorker("a", 1.0, 0.1, 0.0), DLTWorker("b", 1.0, 0.1, 0.0)])
        with_latency = DLTPlatform([DLTWorker("a", 1.0, 0.1, 1.0), DLTWorker("b", 1.0, 0.1, 1.0)])
        assert (
            star_single_round(20.0, with_latency).makespan
            > star_single_round(20.0, base).makespan
        )

    def test_invalid_load(self):
        with pytest.raises(ValueError):
            star_single_round(-1.0, DLTPlatform.homogeneous(2))


class TestBestParticipatingSubset:
    def test_small_load_uses_few_workers(self):
        # With a large per-message latency and a small load, using every
        # worker is counter-productive.
        workers = [DLTWorker(f"w{i}", compute_time=1.0, comm_time=0.1, latency=5.0)
                   for i in range(8)]
        platform = DLTPlatform(workers)
        best = best_participating_subset(2.0, platform)
        assert best.participating < 8

    def test_large_load_uses_every_worker(self):
        platform = DLTPlatform.homogeneous(4, compute_time=1.0, comm_time=0.01)
        best = best_participating_subset(10_000.0, platform)
        assert best.participating == 4

    def test_never_worse_than_full_platform(self):
        workers = [DLTWorker(f"w{i}", compute_time=1.0 + 0.3 * i, comm_time=0.05 * (i + 1),
                             latency=2.0) for i in range(6)]
        platform = DLTPlatform(workers)
        best = best_participating_subset(50.0, platform)
        full = star_single_round(50.0, platform)
        assert best.makespan <= full.makespan + 1e-9


@settings(max_examples=30, deadline=None)
@given(
    load=st.floats(min_value=1.0, max_value=1_000.0),
    compute_times=st.lists(st.floats(min_value=0.05, max_value=5.0), min_size=1, max_size=8),
    comm=st.floats(min_value=0.0, max_value=0.5),
)
def test_star_distribution_conserves_load_and_is_nonnegative(load, compute_times, comm):
    workers = [DLTWorker(f"w{i}", ct, comm) for i, ct in enumerate(compute_times)]
    result = star_single_round(load, DLTPlatform(workers))
    assert sum(result.loads) == pytest.approx(load, rel=1e-6)
    assert all(f >= -1e-9 for f in result.fractions)
    assert result.makespan > 0
