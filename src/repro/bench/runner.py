"""Refuse to time a run while observation overhead is switched on."""

from __future__ import annotations


class PerturbedTimingError(RuntimeError):
    """Raised when timed bench repeats would run with observation overhead on."""


def assert_unperturbed_timing() -> None:
    """Fail fast if the timed repeats would not measure the bare hot path.

    Two observation switches add per-event/per-span overhead to every run:
    a live subscriber on the process-wide telemetry bus (a dashboard, a
    flight recorder) and the ``REPRO_SPANS`` environment flag, which forces
    span capture on even with no subscriber.  A timing taken with either one
    active understates the engine by tens of percent and poisons every later
    comparison against it, so the guard refuses to time under them instead of
    silently recording the slow numbers.
    """

    import os

    from repro.telemetry.bus import get_bus
    from repro.telemetry.spans import SPANS_ENV_VAR

    if os.environ.get(SPANS_ENV_VAR, "").strip():
        raise PerturbedTimingError(
            f"refusing to time benchmarks with {SPANS_ENV_VAR}="
            f"{os.environ[SPANS_ENV_VAR]!r} set: forced span capture perturbs "
            f"the timed repeats. Unset {SPANS_ENV_VAR} and re-run."
        )
    bus = get_bus()
    if bus.has_subscribers():
        raise PerturbedTimingError(
            "refusing to time benchmarks while the telemetry bus has live "
            "subscribers (a dashboard, recorder or listener is attached): "
            "span capture switches on and perturbs the timed repeats. "
            "Close the subscribers (or run the bench in a fresh process) "
            "and re-run."
        )
