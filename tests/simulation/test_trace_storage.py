"""Columnar trace storage and the lazy grid server against eager references.

:class:`~repro.simulation.tracing.Trace` stores events as one flat list and
builds :class:`TraceEvent` objects only on read; the reference here is the
plain list of ``TraceEvent`` objects the trace used to keep.  On the golden
centralized CIMENT case (best-effort runs with kills and resubmits) every
read path must equal the reference and the events a tap collected while
the simulation ran.

:class:`~repro.runtime.hooks.GridServer` builds runs lazily behind a head
deque of killed runs; the reference is one deque holding every run from
the start.
"""

import math
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import ParametricSweep
from repro.experiments.reporting import to_csv
from repro.runtime.hooks import GridServer, _Run
from repro.simulation.tracing import EVENT_KINDS, Trace, TraceEvent, set_trace_tap

# ---------------------------------------------------------------------------
# Eager reference trace
# ---------------------------------------------------------------------------


class _EagerTrace:
    """The list-of-``TraceEvent`` storage, with the same read paths."""

    def __init__(self, events):
        self.events_list = list(events)

    def events(self, kind=None, job=None):
        return [
            e for e in self.events_list
            if (kind is None or e.kind == kind) and (job is None or e.job == job)
        ]

    def busy_intervals(self, cluster=None):
        open_intervals = {}
        intervals = []
        for e in self.events_list:
            if cluster is not None and e.cluster != cluster:
                continue
            key = (e.job, e.cluster)
            if e.kind == "start":
                open_intervals[key] = (e.time, len(e.processors))
            elif e.kind in ("complete", "kill") and key in open_intervals:
                start, nbproc = open_intervals.pop(key)
                intervals.append((e.job, start, e.time, nbproc))
        return intervals

    def to_records(self):
        return [
            {"time": e.time, "kind": e.kind, "job": e.job, "cluster": e.cluster,
             "processors": list(e.processors), "info": e.info}
            for e in self.events_list
        ]

    def flat_records(self):
        return [
            {"time": e.time, "kind": e.kind, "job": e.job, "cluster": e.cluster or "",
             "processors": " ".join(map(str, e.processors)), "info": e.info}
            for e in self.events_list
        ]

    def to_csv(self):
        rows = [dict(r, time=f"{r['time']:.6f}") for r in self.flat_records()]
        return to_csv(rows, columns=Trace.EXPORT_COLUMNS)


def _centralized_golden_trace():
    """The trace of the golden centralized case, and what a tap saw of it."""

    from repro.platform.ciment import ciment_grid
    from repro.simulation.grid_sim import CentralizedGridSimulator
    from repro.workload.communities import community_workload, grid_workload

    grid = ciment_grid()
    local = {}
    bags = []
    for index, cluster in enumerate(sorted(grid, key=lambda c: c.name)):
        local[cluster.name] = community_workload(
            cluster.community, 6, cluster.processor_count, random_state=100 + index
        )
        bags.extend(grid_workload(cluster.community, random_state=200 + index))
    tapped = []
    previous = set_trace_tap(tapped.append)
    try:
        result = CentralizedGridSimulator(grid, local_policy="backfill").run(local, bags)
    finally:
        set_trace_tap(previous)
    return result.trace, tapped


@pytest.fixture(scope="module")
def golden():
    trace, tapped = _centralized_golden_trace()
    return trace, tapped, _EagerTrace(tapped)


def _repr_rows(events):
    return [repr(e) for e in events]


class TestColumnarTraceOnGoldenCase:
    def test_case_exercises_kills(self, golden):
        trace, _tapped, reference = golden
        assert trace.kills() > 0
        assert len(reference.events("resubmit")) == trace.kills()

    def test_iteration_and_len(self, golden):
        trace, tapped, reference = golden
        events = list(trace)
        assert len(trace) == len(tapped) == len(events)
        assert events == tapped == reference.events_list
        # Repr-exact, so float times and processor tuples round-trip.
        assert _repr_rows(events) == _repr_rows(tapped)

    def test_events_by_kind_and_job(self, golden):
        trace, _tapped, reference = golden
        killed = sorted({e.job for e in reference.events("kill")})
        jobs = [None, killed[0], killed[-1], "no-such-job"]
        for kind in (None,) + EVENT_KINDS:
            for job in jobs:
                assert trace.events(kind, job) == reference.events(kind, job)
        for kind in EVENT_KINDS:
            assert trace.count(kind) == len(reference.events(kind))
        assert trace.completion_time(killed[0]) == max(
            e.time for e in reference.events("complete", killed[0])
        )
        assert trace.first_start(killed[0]) == min(
            e.time for e in reference.events("start", killed[0])
        )

    def test_busy_intervals(self, golden):
        trace, _tapped, reference = golden
        assert trace.busy_intervals() == reference.busy_intervals()
        clusters = {e.cluster for e in reference.events_list}
        for cluster in clusters:
            assert trace.busy_intervals(cluster) == reference.busy_intervals(cluster)

    def test_exports(self, golden):
        trace, _tapped, reference = golden
        assert trace.to_records() == reference.to_records()
        assert trace.flat_records() == reference.flat_records()
        assert trace.to_csv() == reference.to_csv()

    def test_reads_build_fresh_events(self, golden):
        trace, _tapped, _reference = golden
        first, again = next(iter(trace)), next(iter(trace))
        assert first == again and first is not again


class TestRecord:
    def test_record_returns_nothing(self):
        assert Trace().record(0.0, "submit", "j") is None

    def test_processors_are_stored_as_a_tuple(self):
        trace = Trace()
        trace.record(1.0, "start", "j", cluster="c", processors=[2, 3])
        (event,) = trace
        assert event.processors == (2, 3)

    @pytest.mark.parametrize(
        "time, kind",
        [(-1.0, "submit"), (math.nan, "submit"), (-math.inf, "start"), (0.0, "explode")],
    )
    def test_rejected_record_stores_nothing(self, time, kind):
        tapped = []
        trace = Trace(tap=tapped.append)
        trace.record(0.0, "submit", "kept")
        with pytest.raises(ValueError):
            trace.record(time, kind, "dropped", cluster="c", processors=(0,))
        assert len(trace) == 1
        assert [e.job for e in trace] == ["kept"]
        assert [e.job for e in tapped] == ["kept"]

    @pytest.mark.parametrize("time", [-1.0, math.nan])
    def test_trace_event_refuses_negative_and_nan_times(self, time):
        with pytest.raises(ValueError, match="time must be >= 0"):
            TraceEvent(time, "submit", "j")


# ---------------------------------------------------------------------------
# Lazy GridServer against a one-deque reference
# ---------------------------------------------------------------------------


class _DequeServer:
    """Every run built up front in one deque (killed runs back to the head)."""

    def __init__(self, bags):
        self.pending = deque(_Run(bag, index) for bag in bags for index in range(bag.n_runs))
        self.completed = {b.name: 0 for b in bags}
        self.bag_completion = {b.name: None for b in bags}
        self.kills = 0

    def next_run(self):
        return self.pending.popleft() if self.pending else None

    def resubmit(self, run):
        self.kills += 1
        self.pending.appendleft(run)

    def complete(self, run, now):
        self.completed[run.bag.name] += 1
        if self.completed[run.bag.name] == run.bag.n_runs:
            self.bag_completion[run.bag.name] = now

    @property
    def remaining_runs(self):
        return len(self.pending)


def _key(run):
    return None if run is None else (run.bag.name, run.index, run.name)


_BAGS = st.lists(st.integers(1, 5), min_size=0, max_size=4).map(
    lambda sizes: [
        ParametricSweep(name=f"bag{i}", n_runs=n, run_time=1.0 + i)
        for i, n in enumerate(sizes)
    ]
)

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("next")),
        st.tuples(st.just("resubmit"), st.integers(0, 20)),
        st.tuples(st.just("complete"), st.integers(0, 20)),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(bags=_BAGS, ops=_OPS)
def test_grid_server_matches_one_deque_reference(bags, ops):
    server, reference = GridServer(bags), _DequeServer(bags)
    # Runs handed out and neither completed nor resubmitted yet, per server.
    out, ref_out = [], []
    assert server.remaining_runs == reference.remaining_runs
    for now, op in enumerate(ops):
        if op[0] == "next":
            run, ref_run = server.next_run(), reference.next_run()
            assert _key(run) == _key(ref_run)
            if run is not None:
                out.append(run)
                ref_out.append(ref_run)
        elif out:
            slot = op[1] % len(out)
            run, ref_run = out.pop(slot), ref_out.pop(slot)
            if op[0] == "resubmit":
                server.resubmit(run)
                reference.resubmit(ref_run)
            else:
                server.complete(run, float(now))
                reference.complete(ref_run, float(now))
        assert server.remaining_runs == reference.remaining_runs
        assert server.kills == reference.kills
        assert server.completed == reference.completed
        assert server.bag_completion == reference.bag_completion
    # Drain: the rest of the sequence matches too.
    while True:
        run, ref_run = server.next_run(), reference.next_run()
        assert _key(run) == _key(ref_run)
        if run is None:
            break
    assert server.remaining_runs == reference.remaining_runs == 0


def test_grid_server_builds_runs_on_demand():
    huge = ParametricSweep(name="huge", n_runs=10**9, run_time=1.0)
    server = GridServer([huge])
    assert server.remaining_runs == 10**9
    assert _key(server.next_run()) == ("huge", 0, "huge#0")
    assert server.remaining_runs == 10**9 - 1
