"""Unit tests of the discrete-event kernel (events, engine, resources, traces)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import Reservation
from repro.simulation.engine import Simulator, Timeout
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

    def test_processes_with_timeouts(self):
        sim = Simulator()
        log = []

        def worker(name, delay):
            yield Timeout(delay)
            log.append((name, sim.now))
            yield Timeout(delay)
            log.append((name, sim.now))
            return name

        p1 = sim.process(worker("a", 1.0), name="a")
        p2 = sim.process(worker("b", 2.5), name="b")
        sim.run()
        assert log == [("a", 1.0), ("a", 2.0), ("b", 2.5), ("b", 5.0)]
        assert p1.finished and p1.result == "a"
        assert p2.finished and p2.result == "b"

    def test_process_waiting_on_event_and_other_process(self):
        sim = Simulator()
        gate = sim.event("gate")
        log = []

        def opener():
            yield Timeout(4.0)
            gate.succeed("open")

        def waiter():
            value = yield gate
            log.append((value, sim.now))
            return "done"

        def joiner(process):
            result = yield process
            log.append((result, sim.now))

        wait_process = sim.process(waiter(), name="waiter")
        sim.process(opener(), name="opener")
        sim.process(joiner(wait_process), name="joiner")
        sim.run()
        assert ("open", 4.0) in log
        assert ("done", 4.0) in log

    def test_invalid_timeout_and_yield(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Timeout(-1.0)

        def bad():
            yield 42

        sim.process(bad(), name="bad")
        with pytest.raises(TypeError):
            sim.run()


class TestProcessorPool:
    def test_acquire_and_release(self):
        pool = ProcessorPool(4)
        procs = pool.try_acquire("a", 3)
        assert procs == (0, 1, 2)
        assert pool.free_count() == 1
        assert pool.holder_of(1) == "a"
        assert pool.try_acquire("b", 2) is None
        pool.release("a")
        assert pool.free_count() == 4
        with pytest.raises(KeyError):
            pool.release("ghost")

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
        assert pool.is_held("local")

    def test_preemptible_lease_cannot_preempt_others(self):
        pool = ProcessorPool(2)
        pool.try_acquire("be-1", 2, preemptible=True)
        assert pool.try_acquire("be-2", 1, preemptible=True, allow_preemption=True) is None

    def test_reservations_block_processors(self):
        reservation = Reservation(processors=(0, 1), start=0.0, end=10.0)
        pool = ProcessorPool(4, reservations=[reservation])
        assert pool.free_count(now=5.0) == 2
        assert pool.free_count(now=20.0) == 4

    def test_acquire_specific(self):
        pool = ProcessorPool(4)
        pool.acquire_specific("res", [1, 3])
        assert pool.holder_of(3) == "res"
        with pytest.raises(ValueError):
            pool.acquire_specific("other", [3])
        with pytest.raises(ValueError):
            pool.acquire_specific("oob", [9])


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


class TestSimEventResumeOrdering:
    """Regression tests pinning the zero-delay resume ordering of SimEvent.

    ``SimEvent.succeed`` wakes waiters through zero-delay events, so the
    ordering contract is inherited from the queue's (time, priority, seq)
    tie-break: waiters of one event resume FIFO, waiters of several events
    succeeding at the same timestamp resume in succeed() order, and resumes
    run after callbacks that were already scheduled at the same timestamp.
    """

    def test_waiters_resume_in_registration_order(self):
        sim = Simulator()
        event = sim.event("gate")
        order = []

        def waiter(name):
            value = yield event
            order.append((name, value))

        for name in ("first", "second", "third"):
            sim.process(waiter(name), name=name)
        sim.schedule(1.0, lambda: event.succeed("go"))
        sim.run()
        assert order == [("first", "go"), ("second", "go"), ("third", "go")]

    def test_simultaneous_events_resume_in_succeed_order(self):
        sim = Simulator()
        event_a = sim.event("a")
        event_b = sim.event("b")
        order = []

        def waiter(name, event):
            yield event
            order.append(name)

        # Registration interleaves the two events; the wake order must follow
        # the succeed() order (b first), then registration order within each.
        sim.process(waiter("a1", event_a), name="a1")
        sim.process(waiter("b1", event_b), name="b1")
        sim.process(waiter("a2", event_a), name="a2")
        sim.process(waiter("b2", event_b), name="b2")
        # Both succeed at t=1, b strictly before a.
        sim.schedule(1.0, lambda: event_b.succeed())
        sim.schedule(1.0, lambda: event_a.succeed())
        sim.run()
        assert order == ["b1", "b2", "a1", "a2"]

    def test_resumes_run_after_already_scheduled_same_time_callbacks(self):
        sim = Simulator()
        event = sim.event()
        order = []

        def waiter():
            yield event
            order.append("waiter")

        sim.process(waiter(), name="w")
        sim.schedule(1.0, lambda: event.succeed())
        # Scheduled before the succeed fires, also at t=1: runs first.
        sim.schedule(1.0, lambda: order.append("callback"))
        sim.run()
        assert order == ["callback", "waiter"]
        assert sim.now == pytest.approx(1.0)

    def test_value_bound_at_trigger_time_for_late_waiters(self):
        sim = Simulator()
        event = sim.event()
        seen = []

        def late_waiter():
            yield Timeout(2.0)
            value = yield event  # event already triggered: immediate resume
            seen.append(value)

        sim.process(late_waiter(), name="late")
        sim.schedule(1.0, lambda: event.succeed(42))
        sim.run()
        assert seen == [42]
        assert event.triggered

    def test_resume_order_is_reproducible_across_runs(self):
        def run_once():
            sim = Simulator()
            events = [sim.event(str(i)) for i in range(5)]
            order = []

            def waiter(name, event):
                yield event
                order.append(name)

            for i, event in enumerate(events):
                for j in range(3):
                    sim.process(waiter(f"e{i}w{j}", event), name=f"e{i}w{j}")
            # All five events trigger at the same timestamp.
            for event in events:
                sim.schedule(1.0, lambda e=event: e.succeed())
            sim.run()
            return order

        assert run_once() == run_once()


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
