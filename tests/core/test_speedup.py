"""Unit tests of the speedup / penalty models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import MoldableJob
from repro.core.speedup import (
    AmdahlSpeedup,
    CommunicationPenaltySpeedup,
    LinearSpeedup,
    PowerLawSpeedup,
    RooflineSpeedup,
    efficiency,
    make_runtime_table,
)


class TestLinearSpeedup:
    def test_values(self):
        model = LinearSpeedup()
        assert model(1) == 1.0
        assert model(8) == 8.0

    def test_rejects_zero_procs(self):
        with pytest.raises(ValueError):
            LinearSpeedup()(0)


class TestAmdahlSpeedup:
    def test_limits(self):
        model = AmdahlSpeedup(serial_fraction=0.5)
        assert model(1) == pytest.approx(1.0)
        # Infinite processors -> speedup tends to 1 / serial_fraction = 2
        assert model(10_000) == pytest.approx(2.0, rel=1e-3)

    def test_zero_serial_fraction_is_linear(self):
        model = AmdahlSpeedup(serial_fraction=0.0)
        assert model(16) == pytest.approx(16.0)

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            AmdahlSpeedup(serial_fraction=1.5)


class TestPowerLawSpeedup:
    def test_values(self):
        model = PowerLawSpeedup(alpha=0.5)
        assert model(1) == pytest.approx(1.0)
        assert model(4) == pytest.approx(2.0)

    def test_alpha_one_is_linear(self):
        assert PowerLawSpeedup(alpha=1.0)(7) == pytest.approx(7.0)

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            PowerLawSpeedup(alpha=-0.1)
        with pytest.raises(ValueError):
            PowerLawSpeedup(alpha=1.1)


class TestCommunicationPenaltySpeedup:
    def test_speedup_is_clamped_to_maximum(self):
        model = CommunicationPenaltySpeedup(overhead_fraction=0.1)
        values = [model(k) for k in range(1, 30)]
        # Clamped model is non-decreasing even past the optimal processor count.
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_unclamped_model_eventually_degrades(self):
        model = CommunicationPenaltySpeedup(overhead_fraction=0.1, clamp=False)
        assert model.raw_speedup(30) < model.raw_speedup(3)

    def test_zero_overhead_is_linear(self):
        model = CommunicationPenaltySpeedup(overhead_fraction=0.0)
        assert model(8) == pytest.approx(8.0)


class TestRooflineSpeedup:
    def test_plateau(self):
        model = RooflineSpeedup(max_parallelism=4)
        assert model(2) == 2.0
        assert model(4) == 4.0
        assert model(64) == 4.0

    def test_invalid(self):
        with pytest.raises(ValueError):
            RooflineSpeedup(max_parallelism=0)


class TestMakeRuntimeTable:
    def test_linear_table(self):
        table = make_runtime_table(12.0, 4, LinearSpeedup())
        assert table == pytest.approx([12.0, 6.0, 4.0, 3.0])

    def test_tables_are_monotonic_for_all_models(self):
        models = [
            LinearSpeedup(),
            AmdahlSpeedup(0.2),
            PowerLawSpeedup(0.6),
            CommunicationPenaltySpeedup(0.05),
            RooflineSpeedup(6),
        ]
        for model in models:
            table = make_runtime_table(10.0, 16, model)
            assert all(b <= a + 1e-12 for a, b in zip(table, table[1:]))
            # and they can build a valid MoldableJob (work monotony holds too)
            MoldableJob(name="ok", runtimes=table)

    def test_repair_monotony(self):
        # A pathological model whose speedup decreases: repair keeps runtimes flat.
        table = make_runtime_table(10.0, 3, lambda k: 1.0 / k, repair_monotony=True)
        assert table == pytest.approx([10.0, 10.0, 10.0])

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            make_runtime_table(0.0, 4, LinearSpeedup())
        with pytest.raises(ValueError):
            make_runtime_table(1.0, 0, LinearSpeedup())


class TestHelpers:
    def test_efficiency(self):
        assert efficiency(LinearSpeedup(), 8) == pytest.approx(1.0)
        assert efficiency(AmdahlSpeedup(0.5), 4) < 0.5


@settings(max_examples=50, deadline=None)
@given(
    serial=st.floats(min_value=0.0, max_value=1.0),
    seq=st.floats(min_value=0.1, max_value=1000.0),
    max_procs=st.integers(min_value=1, max_value=64),
)
def test_amdahl_tables_always_yield_valid_moldable_jobs(serial, seq, max_procs):
    """Property: any Amdahl profile is monotonic and accepted by MoldableJob."""

    table = make_runtime_table(seq, max_procs, AmdahlSpeedup(serial))
    job = MoldableJob(name="prop", runtimes=table)
    assert job.best_runtime() <= job.sequential_time() + 1e-12
    assert job.min_work() >= seq * (1 - 1e-9)


@settings(max_examples=50, deadline=None)
@given(
    alpha=st.floats(min_value=0.0, max_value=1.0),
    nbproc=st.integers(min_value=1, max_value=128),
)
def test_power_law_speedup_bounded_by_processor_count(alpha, nbproc):
    """Property: 1 <= speedup(k) <= k for every power-law exponent in [0, 1]."""

    speedup = PowerLawSpeedup(alpha)(nbproc)
    assert 1.0 - 1e-12 <= speedup <= nbproc + 1e-12
