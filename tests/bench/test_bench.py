"""The timing guard that perfbench calls before every timed run."""

import pytest

from repro.bench.runner import PerturbedTimingError, assert_unperturbed_timing
from repro.telemetry.bus import get_bus


class TestTimingGuard:
    """The guard refuses to time with observation overhead switched on."""

    def test_spans_env_flag_aborts_timing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "1")
        with pytest.raises(PerturbedTimingError, match="REPRO_SPANS"):
            assert_unperturbed_timing()

    def test_blank_spans_flag_does_not_abort_timing(self, monkeypatch):
        monkeypatch.setenv("REPRO_SPANS", "  ")
        assert not get_bus().has_subscribers()
        assert_unperturbed_timing()

    def test_live_bus_subscriber_aborts_timing(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        subscription = get_bus().subscribe()
        try:
            with pytest.raises(PerturbedTimingError, match="subscribers"):
                assert_unperturbed_timing()
        finally:
            subscription.close()

    def test_timing_proceeds_once_the_subscriber_closes(self, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        subscription = get_bus().subscribe()
        with pytest.raises(PerturbedTimingError):
            assert_unperturbed_timing()
        subscription.close()
        assert_unperturbed_timing()
