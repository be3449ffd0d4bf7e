"""Unit tests of the discrete-event kernel (events, engine, resources, traces)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.engine import Simulator
from repro.simulation.events import EventQueue
from repro.simulation.resources import ProcessorPool
from repro.simulation.tracing import Trace, TraceEvent


class TestEventQueue:
    def test_orders_by_time_then_priority_then_insertion(self):
        queue = EventQueue()
        order = []
        queue.push(2.0, lambda: order.append("late"))
        queue.push(1.0, lambda: order.append("early-b"), priority=1)
        queue.push(1.0, lambda: order.append("early-a"), priority=0)
        queue.push(1.0, lambda: order.append("early-c"), priority=1)
        while queue:
            queue.pop().callback()
        assert order == ["early-a", "early-b", "early-c", "late"]

    def test_cancel(self):
        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.cancel(event)
        assert len(queue) == 0
        with pytest.raises(IndexError):
            queue.pop()

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            EventQueue().push(-1.0, lambda: None)

    def test_peek_time_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        queue.cancel(first)
        assert queue.peek_time() == 2.0


class TestSimulator:
    def test_clock_advances_and_callbacks_fire_in_order(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(("a", sim.now)))
        sim.schedule(2.0, lambda: seen.append(("b", sim.now)))
        end = sim.run()
        assert seen == [("b", 2.0), ("a", 5.0)]
        assert end == 5.0
        assert sim.processed_events == 2

    def test_schedule_at_and_past_rejected(self):
        sim = Simulator()
        sim.schedule_at(3.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(1.0, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        sim.run()
        assert fired == [1, 10]

    def test_stop(self):
        sim = Simulator()
        sim.schedule(1.0, sim.stop)
        sim.schedule(2.0, lambda: pytest.fail("should not run"))
        sim.run()
        assert sim.now == 1.0
        assert sim.pending_events() == 1

    def test_cascading_events(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(3.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 4.0]

    def test_same_time_callbacks_run_in_scheduling_order(self):
        sim = Simulator()
        order = []
        for name in ("first", "second", "third"):
            sim.schedule(1.0, lambda n=name: order.append(n))
        sim.schedule_at(1.0, lambda: order.append("fourth"))
        sim.run()
        assert order == ["first", "second", "third", "fourth"]

    def test_zero_delay_callback_runs_after_those_already_due_now(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: sim.schedule(0.0, lambda: order.append("zero-delay")))
        # Scheduled before the zero-delay one is, also at t=1: runs first.
        sim.schedule(1.0, lambda: order.append("callback"))
        sim.run()
        assert order == ["callback", "zero-delay"]
        assert sim.now == pytest.approx(1.0)

    def test_priority_breaks_time_ties_before_scheduling_order(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("late"), priority=1)
        sim.schedule(1.0, lambda: order.append("early"), priority=0)
        sim.run()
        assert order == ["early", "late"]

    def test_cancelled_callback_never_fires(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("cancelled"))
        sim.schedule(1.0, lambda: sim.cancel(later))
        later = sim.schedule(2.0, lambda: fired.append("cancelled mid-run"))
        sim.schedule(3.0, lambda: fired.append("kept"))
        sim.cancel(event)
        sim.run()
        assert fired == ["kept"]
        assert sim.processed_events == 2

    def test_max_events_budget_stops_and_resumes(self):
        sim = Simulator()
        fired = []
        for delay in (1.0, 2.0, 3.0):
            sim.schedule(delay, lambda d=delay: fired.append(d))
        sim.run(max_events=2)
        assert fired == [1.0, 2.0]
        assert sim.now == 2.0
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestProcessorPool:
    def test_acquire_and_release(self):
        pool = ProcessorPool(4)
        procs = pool.try_acquire("a", 3)
        assert procs == (0, 1, 2)
        assert pool.free_count() == 1
        assert pool.try_acquire("b", 2) is None
        pool.release("a")
        assert pool.free_count() == 4
        with pytest.raises(KeyError):
            pool.release("ghost")

    def test_released_processors_are_reused_lowest_index_first(self):
        pool = ProcessorPool(5)
        assert pool.try_acquire("a", 2) == (0, 1)
        assert pool.try_acquire("b", 2) == (2, 3)
        assert pool.release("a") == (0, 1)
        assert pool.try_acquire("c", 3) == (0, 1, 4)
        assert pool.free_count() == 0

    def test_non_positive_request_rejected(self):
        pool = ProcessorPool(2)
        with pytest.raises(ValueError, match="nbproc must be >= 1"):
            pool.try_acquire("a", 0)
        with pytest.raises(ValueError, match="machine_count must be >= 1"):
            ProcessorPool(0)

    def test_duplicate_lease_rejected(self):
        pool = ProcessorPool(2)
        pool.try_acquire("a", 1)
        with pytest.raises(ValueError):
            pool.try_acquire("a", 1)

    def test_preemption_of_best_effort_leases(self):
        pool = ProcessorPool(4)
        killed = []
        pool.try_acquire("be-1", 2, preemptible=True, on_preempt=lambda p: killed.append(p))
        pool.try_acquire("be-2", 2, preemptible=True, on_preempt=lambda p: killed.append(p))
        assert pool.free_count() == 0
        # Without preemption the local job cannot start.
        assert pool.try_acquire("local-no", 3) is None
        # With preemption enough best-effort leases are killed.
        procs = pool.try_acquire("local", 3, allow_preemption=True)
        assert procs is not None and len(procs) == 3
        assert len(killed) >= 1
        assert pool.release("local") == procs

    def test_preemption_kills_nobody_when_it_cannot_make_room(self):
        pool = ProcessorPool(4)
        killed = []
        pool.try_acquire("local-1", 3)
        pool.try_acquire("be", 1, preemptible=True, on_preempt=killed.append)
        # Killing the one best-effort lease frees 1 processor, not the 2 asked.
        assert pool.try_acquire("local-2", 2, allow_preemption=True) is None
        assert killed == []
        assert pool.preemptible_processors() == [3]

    def test_preemptible_lease_cannot_preempt_others(self):
        pool = ProcessorPool(2)
        pool.try_acquire("be-1", 2, preemptible=True)
        assert pool.try_acquire("be-2", 1, preemptible=True, allow_preemption=True) is None


class TestTrace:
    def test_record_and_query(self):
        trace = Trace()
        trace.record(0.0, "submit", "j1", cluster="c")
        trace.record(1.0, "start", "j1", cluster="c", processors=[0, 1])
        trace.record(5.0, "complete", "j1", cluster="c")
        trace.record(2.0, "start", "j2", cluster="c", processors=[2])
        trace.record(3.0, "kill", "j2", cluster="c")
        assert len(trace) == 5
        assert trace.count("start") == 2
        assert trace.completion_time("j1") == 5.0
        assert trace.completion_time("ghost") is None
        assert trace.first_start("j2") == 2.0
        assert trace.kills() == 1

    def test_busy_intervals_and_utilization(self):
        trace = Trace()
        trace.record(0.0, "start", "a", cluster="c", processors=[0, 1])
        trace.record(4.0, "complete", "a", cluster="c")
        trace.record(0.0, "start", "b", cluster="c", processors=[2])
        trace.record(2.0, "kill", "b", cluster="c")
        intervals = trace.busy_intervals("c")
        assert ("a", 0.0, 4.0, 2) in intervals
        assert ("b", 0.0, 2.0, 1) in intervals
        # busy area = 2*4 + 1*2 = 10 over 4 machines * 4 time units
        assert trace.utilization(4, 4.0, "c") == pytest.approx(10 / 16)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            TraceEvent(0.0, "explode", "j")

    def test_csv_export(self):
        trace = Trace()
        trace.record(0.0, "submit", "j1", cluster="c", info="local")
        text = trace.to_csv()
        assert "time,kind,job,cluster,processors,info" in text
        assert "submit" in text
        assert len(trace.to_records()) == 1


@settings(max_examples=30, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
def test_simulator_fires_events_in_nondecreasing_time_order(delays):
    """Property: the simulation clock never goes backwards."""

    sim = Simulator()
    fired = []
    for delay in delays:
        sim.schedule(delay, lambda: fired.append(sim.now))
    sim.run()
    assert len(fired) == len(delays)
    assert fired == sorted(fired)


class TestKernelTierSelection:
    """Only the two real tiers are accepted, by argument and by environment."""

    def test_known_tiers_resolve(self, monkeypatch):
        from repro.simulation.kernel import compiled_available, resolve_kernel

        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert resolve_kernel() == "pure"
        assert resolve_kernel("pure") == "pure"
        expected = "compiled" if compiled_available() else "pure"
        assert resolve_kernel(" Compiled ") == expected

    def test_resolve_kernel_rejects_auto(self):
        from repro.simulation.kernel import resolve_kernel

        with pytest.raises(ValueError, match="pure, compiled"):
            resolve_kernel("auto")

    def test_resolve_kernel_rejects_unknown_tier(self):
        from repro.simulation.kernel import KERNEL_TIERS, resolve_kernel

        assert KERNEL_TIERS == ("pure", "compiled")
        with pytest.raises(ValueError, match="unknown kernel tier 'turbo'"):
            resolve_kernel("turbo")

    def test_simulator_rejects_auto(self):
        with pytest.raises(ValueError, match="pure, compiled"):
            Simulator(kernel="auto")

    def test_environment_rejects_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "auto")
        with pytest.raises(ValueError, match="pure, compiled"):
            Simulator()
