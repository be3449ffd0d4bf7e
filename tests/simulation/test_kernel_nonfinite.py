"""Non-finite event times are refused by both kernel tiers.

A NaN time passes a ``time < 0`` check, and once in the heap it never
equals the clock, so the run loop's same-time batch never drains it and
``run()`` never returns.  Both tiers must refuse NaN and infinite times at
scheduling with the same ``ValueError``, and keep their negative-time
messages.
"""

import math

import pytest

from repro.simulation.engine import Simulator
from repro.simulation.events import NON_FINITE_TIME
from repro.simulation.kernel import compiled_available

TIERS = [
    "pure",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(
            not compiled_available(),
            reason="compiled kernel extension not built (run `make kernel`)",
        ),
    ),
]

NON_FINITE = [math.nan, math.inf]


def _simulator(tier):
    sim = Simulator(kernel=tier)
    assert sim.kernel_tier == tier
    return sim


def _noop():
    pass


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("entry", ["schedule", "schedule_at", "push"])
def test_non_finite_time_rejected(tier, value, entry):
    sim = _simulator(tier)
    sim.schedule(1.0, _noop)
    target = sim._queue.push if entry == "push" else getattr(sim, entry)
    with pytest.raises(ValueError) as caught:
        target(value, _noop)
    assert str(caught.value) == NON_FINITE_TIME
    # Nothing was queued, and the run drains and returns.
    assert sim.pending_events() == 1
    assert sim.run() == 1.0
    assert sim.processed_events == 1


@pytest.mark.parametrize("tier", TIERS)
def test_nan_rejected_after_the_clock_moved(tier):
    sim = _simulator(tier)
    sim.schedule(2.5, _noop)
    sim.run()
    for entry in (sim.schedule, sim.schedule_at):
        with pytest.raises(ValueError, match=NON_FINITE_TIME):
            entry(math.nan, _noop)
    assert sim.pending_events() == 0


@pytest.mark.parametrize("tier", TIERS)
def test_negative_time_messages_kept(tier):
    sim = _simulator(tier)
    with pytest.raises(ValueError, match=r"^cannot schedule in the past \(negative delay\)$"):
        sim.schedule(-1.0, _noop)
    with pytest.raises(ValueError, match="^cannot schedule an event at a negative time$"):
        sim._queue.push(-1.0, _noop)
    with pytest.raises(ValueError, match="^cannot schedule at -inf, current time is already 0.0$"):
        sim.schedule_at(-math.inf, _noop)


@pytest.mark.parametrize("tier", TIERS)
def test_delay_overflowing_to_infinity_rejected(tier):
    sim = _simulator(tier)
    sim.schedule(1e308, _noop)
    sim.run()
    with pytest.raises(ValueError, match=NON_FINITE_TIME):
        sim.schedule(1e308, _noop)
