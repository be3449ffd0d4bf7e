"""The best-effort hand-off: a finished run passes its processor straight on.

``ProcessorPool.hand_over`` must leave the pool exactly as ``release`` +
``try_acquire`` would when nothing else is free, down to the order in which
a local job's preemption picks its victims.  The hand-built single-cluster
runs below pin the ``complete``/``start`` pairs, the processors and the
``launches`` count of the three ways a best-effort completion can go: the
hand-off, the hand-off with an empty server, and the ``release`` + ``fill``
fallback when another processor is free.
"""

from __future__ import annotations

import pytest

from repro.core.job import ParametricSweep, RigidJob
from repro.platform.generators import homogeneous_cluster
from repro.platform.grid import LightGrid
from repro.runtime.hooks import BestEffortHook
from repro.simulation.grid_sim import CentralizedGridSimulator
from repro.simulation.resources import ProcessorPool
from tests.runtime.trace_checker import trace_violations


def _best_effort_pool(kills):
    """Three one-processor best-effort leases a, b, c on processors 0, 1, 2."""

    pool = ProcessorPool(3)
    for name in "abc":
        pool.try_acquire(name, 1, preemptible=True,
                         on_preempt=lambda p, name=name: kills.append((name, p)))
    return pool


class TestHandOver:
    def test_moves_the_processors_to_the_new_name(self):
        kills = []
        pool = _best_effort_pool(kills)
        assert pool.hand_over("a", "d", lambda p: kills.append(("d", p))) == (0,)
        assert pool.free_count() == 0
        assert pool.preemptible_processors() == [0, 1, 2]
        with pytest.raises(KeyError):
            pool.release("a")
        assert pool.release("d") == (0,)
        assert pool.free_count() == 1

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_preemption_order_matches_release_then_acquire(self, width):
        via_release, via_hand_over = [], []
        first = _best_effort_pool(via_release)
        first.release("a")
        first.try_acquire("d", 1, preemptible=True,
                          on_preempt=lambda p: via_release.append(("d", p)))
        second = _best_effort_pool(via_hand_over)
        second.hand_over("a", "d", lambda p: via_hand_over.append(("d", p)))

        got = second.try_acquire("local", width, allow_preemption=True)
        assert got == first.try_acquire("local", width, allow_preemption=True)
        # The lease moved to the back: b, c, then d are the victims.
        assert via_hand_over == via_release == [("b", (1,)), ("c", (2,)), ("d", (0,))][:width]
        assert second.preemptible_processors() == first.preemptible_processors()

    def test_the_new_callback_is_the_one_preemption_calls(self):
        kills = []
        pool = _best_effort_pool(kills)
        pool.hand_over("c", "d", lambda p: kills.append(("d", p)))
        pool.try_acquire("local", 3, allow_preemption=True)
        assert kills == [("a", (0,)), ("b", (1,)), ("d", (2,))]

    def test_keeps_a_lease_unpreemptible(self):
        pool = ProcessorPool(1)
        pool.try_acquire("local", 1)
        pool.hand_over("local", "next")
        assert pool.preemptible_processors() == []
        assert pool.try_acquire("other", 1, allow_preemption=True) is None

    def test_an_active_new_name_raises_and_changes_nothing(self):
        kills = []
        pool = _best_effort_pool(kills)
        with pytest.raises(ValueError, match="lease 'b' already active"):
            pool.hand_over("a", "b")
        assert pool.release("a") == (0,)
        assert pool.release("b") == (1,)

    def test_an_unknown_old_name_raises_and_changes_nothing(self):
        kills = []
        pool = _best_effort_pool(kills)
        with pytest.raises(KeyError, match="no active lease named 'ghost'"):
            pool.hand_over("ghost", "d")
        with pytest.raises(KeyError):
            pool.release("d")
        assert pool.free_count() == 0


# ---------------------------------------------------------------------------
# Hand-built single-cluster runs
# ---------------------------------------------------------------------------


@pytest.fixture
def calls(monkeypatch):
    """Count the hand-offs and the ``fill`` calls of a run."""

    counts = {"hand_over": 0, "fill": 0}
    hand_over, fill = ProcessorPool.hand_over, BestEffortHook.fill

    def counting_hand_over(self, *args, **kwargs):
        counts["hand_over"] += 1
        return hand_over(self, *args, **kwargs)

    def counting_fill(self, node):
        counts["fill"] += 1
        return fill(self, node)

    monkeypatch.setattr(ProcessorPool, "hand_over", counting_hand_over)
    monkeypatch.setattr(BestEffortHook, "fill", counting_fill)
    return counts


def _run(processors, bags, local=()):
    grid = LightGrid("g", [homogeneous_cluster("solo", processors)])
    record = CentralizedGridSimulator(grid).run({"solo": list(local)}, bags)
    assert trace_violations(record) == []
    return record


def _best_effort_events(record):
    return [
        (e.time, e.kind, e.job, e.processors)
        for e in record.trace
        if e.info == "best-effort"
    ]


class TestSingleClusterRuns:
    def test_the_freed_processor_goes_to_the_next_queued_run(self, calls):
        record = _run(1, [ParametricSweep(name="bag", n_runs=3, run_time=2.0)])
        assert _best_effort_events(record) == [
            (0.0, "start", "bag#0", (0,)),
            (2.0, "complete", "bag#0", ()),
            (2.0, "start", "bag#1", (0,)),
            (4.0, "complete", "bag#1", ()),
            (4.0, "start", "bag#2", (0,)),
            (6.0, "complete", "bag#2", ()),
        ]
        assert record.launches == 3
        assert record.runs_completed == {"bag": 3}
        assert record.bag_completion == {"bag": 6.0}
        # Two hand-offs, then an empty server; fill ran only at time 0.
        assert calls == {"hand_over": 2, "fill": 1}

    def test_an_empty_server_releases_the_processor(self, calls):
        # The local job arrives after the only run finished: it starts on
        # the released processor at once, with nothing to preempt.
        local = [RigidJob(name="late", nbproc=1, duration=1.0, release_date=5.0)]
        record = _run(1, [ParametricSweep(name="bag", n_runs=1, run_time=2.0)], local)
        assert _best_effort_events(record) == [
            (0.0, "start", "bag#0", (0,)),
            (2.0, "complete", "bag#0", ()),
        ]
        assert record.launches == 1
        assert record.kills == 0
        assert record.schedules["solo"]["late"].start == 5.0
        assert record.schedules["solo"]["late"].processors == (0,)
        # fill ran at time 0 and around the local job (its submit and its
        # completion), not after the run: that completion took the hand-off
        # path and found the server empty.
        assert calls == {"hand_over": 0, "fill": 3}

    def test_two_free_processors_take_the_release_and_fill_path(self, calls):
        # Three processors, two runs: processor 2 never gets one, so both
        # completions see another free processor and fall back to fill.
        record = _run(3, [ParametricSweep(name="bag", n_runs=2, run_time=1.5)])
        assert _best_effort_events(record) == [
            (0.0, "start", "bag#0", (0,)),
            (0.0, "start", "bag#1", (1,)),
            (1.5, "complete", "bag#0", ()),
            (1.5, "complete", "bag#1", ()),
        ]
        assert record.launches == 2
        assert calls == {"hand_over": 0, "fill": 3}

    def test_a_kill_after_hand_offs_picks_the_oldest_lease_first(self, calls):
        # bag#0 (2 time units) hands processor 0 to bag#2 at t=2; at t=3 a
        # local job needs one processor and kills the oldest lease, bag#1 on
        # processor 1, exactly as release + try_acquire would order them.
        bags = [ParametricSweep(name="short", n_runs=1, run_time=2.0),
                ParametricSweep(name="long", n_runs=2, run_time=5.0)]
        local = [RigidJob(name="urgent", nbproc=1, duration=1.0, release_date=3.0)]
        record = _run(2, bags, local)
        events = [(e.time, e.kind, e.job, e.processors) for e in record.trace
                  if e.kind != "submit"]
        assert events[:8] == [
            (0.0, "start", "short#0", (0,)),
            (0.0, "start", "long#0", (1,)),
            (2.0, "complete", "short#0", ()),
            (2.0, "start", "long#1", (0,)),
            (3.0, "kill", "long#0", ()),
            (3.0, "resubmit", "long#0", ()),
            (3.0, "start", "urgent", (1,)),
            (4.0, "complete", "urgent", ()),
        ]
        assert events[8] == (4.0, "start", "long#0", (1,))
        assert record.launches == 4
        assert record.kills == 1
        assert calls["hand_over"] == 1
