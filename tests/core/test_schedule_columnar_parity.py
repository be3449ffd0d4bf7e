"""The columnar ``Schedule`` against the object-model schedule it replaced.

``ObjectSchedule`` below is the former implementation: one frozen
``ScheduledJob`` (holding an ``Allocation``) per job in a dict, every
reader walking those objects.  The ``ref_*`` functions are the criteria,
the report, the golden payload and the fairness usage as they read that
model.  On
hypothesis-generated rigid and moldable schedules -- with reservations,
out-of-range and duplicate processors, negative starts and non-positive
runtimes -- both sides must raise the same errors and give the same
values, bit for bit (floats are compared through ``repr``).
"""

import operator
from itertools import chain
from typing import Dict, List

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    Allocation,
    Reservation,
    Schedule,
    ScheduledJob,
    ScheduleError,
)
from repro.core.criteria import ALL_CRITERIA, CriteriaReport
from repro.core.job import MoldableJob, RigidJob
from repro.metrics.fairness import community_usage
from repro.runtime.golden import schedule_payload


class ObjectSchedule:
    """The object-model schedule (oracle)."""

    def __init__(self, machine_count, *, reservations=()):
        if machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        self.machine_count = machine_count
        self.reservations = tuple(reservations)
        self._entries: Dict[str, ScheduledJob] = {}

    def add(self, job, start, processors, runtime=None):
        if job.name in self._entries:
            raise ValueError(f"job {job.name!r} already scheduled")
        processors = tuple(map(int, processors))
        self._check_processors(processors)
        if runtime is None:
            runtime = job.runtime(len(processors))
        entry = ScheduledJob(job=job, start=start, allocation=Allocation(processors, runtime))
        self._entries[job.name] = entry
        return entry

    def add_scheduled(self, entry):
        if entry.job.name in self._entries:
            raise ValueError(f"job {entry.job.name!r} already scheduled")
        self._check_processors(entry.allocation.processors)
        self._entries[entry.job.name] = entry

    def _check_processors(self, processors):
        for p in processors:
            if not 0 <= p < self.machine_count:
                raise ValueError(
                    f"processor index {p} outside platform of size {self.machine_count}"
                )

    def shift(self, delta):
        out = ObjectSchedule(self.machine_count, reservations=self.reservations)
        for entry in self._entries.values():
            out.add_scheduled(
                ScheduledJob(job=entry.job, start=entry.start + delta, allocation=entry.allocation)
            )
        return out

    def merge(self, other):
        if other.machine_count != self.machine_count:
            raise ValueError("cannot merge schedules on different platform sizes")
        out = ObjectSchedule(
            self.machine_count, reservations=self.reservations + other.reservations
        )
        for entry in self._entries.values():
            out.add_scheduled(entry)
        for entry in other._entries.values():
            out.add_scheduled(entry)
        return out

    def __len__(self):
        return len(self._entries)

    def __contains__(self, job_name):
        return job_name in self._entries

    def __getitem__(self, job_name):
        return self._entries[job_name]

    def __iter__(self):
        return iter(self._entries.values())

    @property
    def jobs(self):
        return [entry.job for entry in self._entries.values()]

    def completion_times(self):
        return {name: e.completion for name, e in self._entries.items()}

    def makespan(self):
        if not self._entries:
            return 0.0
        return max(e.completion for e in self._entries.values())

    def total_work(self):
        return sum(e.allocation.work for e in self._entries.values())

    def utilization(self, horizon=None):
        horizon = self.makespan() if horizon is None else horizon
        if horizon <= 0:
            return 0.0
        used = 0.0
        for e in self._entries.values():
            used += e.nbproc * max(0.0, min(e.completion, horizon) - min(e.start, horizon))
        return used / (self.machine_count * horizon)

    def validate(self, *, check_release_dates=True):
        entries = sorted(self._entries.values(), key=lambda e: e.start)
        counts: List[int] = []
        for entry in entries:
            job = entry.job
            processors = entry.allocation.processors
            nbproc = len(processors)
            counts.append(nbproc)
            if check_release_dates and entry.start < job.release_date - 1e-9:
                raise ScheduleError(
                    f"job {job.name!r} starts at {entry.start} before its "
                    f"release date {job.release_date}"
                )
            if isinstance(job, RigidJob) and nbproc != job.nbproc:
                raise ScheduleError(
                    f"rigid job {job.name!r} scheduled on {nbproc} "
                    f"processors, requires {job.nbproc}"
                )
            if isinstance(job, MoldableJob):
                if not job.min_procs <= nbproc <= job.max_procs:
                    raise ScheduleError(
                        f"moldable job {job.name!r} scheduled on {nbproc} "
                        f"processors, admissible range is "
                        f"[{job.min_procs}, {job.max_procs}]"
                    )
            for reservation in self.reservations:
                for p in processors:
                    if reservation.blocks(p, entry.start, entry.completion):
                        raise ScheduleError(
                            f"job {job.name!r} overlaps reservation "
                            f"{reservation.label!r} on processor {p}"
                        )
        if not entries:
            return
        procs = np.fromiter(
            chain.from_iterable([entry.allocation.processors for entry in entries]),
            dtype=np.int64,
            count=sum(counts),
        )
        starts = np.repeat(np.array([entry.start for entry in entries]), counts)
        ends = np.repeat(np.array([entry.completion for entry in entries]), counts)
        order = np.lexsort((starts, procs))
        p_sorted, s_sorted, e_sorted = procs[order], starts[order], ends[order]
        same = p_sorted[1:] == p_sorted[:-1]
        if bool((same & (s_sorted[1:] < e_sorted[:-1] - 1e-9)).any()):
            per_proc: Dict[int, List[ScheduledJob]] = {}
            for entry in entries:
                for p in entry.processors:
                    per_proc.setdefault(p, []).append(entry)
            for p, plist in per_proc.items():
                plist.sort(key=lambda e: e.start)
                for prev, nxt in zip(plist, plist[1:]):
                    if nxt.start < prev.completion - 1e-9:
                        raise ScheduleError(
                            f"jobs {prev.job.name!r} and {nxt.job.name!r} overlap "
                            f"on processor {p} "
                            f"([{prev.start}, {prev.completion}) vs "
                            f"[{nxt.start}, {nxt.completion}))"
                        )
            raise AssertionError("sweep and per-pair scan disagree")

    def to_gantt(self, *, width=78):
        makespan = self.makespan()
        if makespan == 0:
            return "(empty schedule)"
        scale = width / makespan
        rows = []
        labels = {}
        letters = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
        for i, name in enumerate(sorted(self._entries)):
            labels[name] = letters[i % len(letters)]
        for p in range(self.machine_count):
            row = ["."] * width
            for entry in self._entries.values():
                if p not in entry.processors:
                    continue
                lo = int(entry.start * scale)
                hi = max(lo + 1, int(entry.completion * scale))
                for x in range(lo, min(hi, width)):
                    row[x] = labels[entry.job.name]
            rows.append(f"P{p:03d} |" + "".join(row) + "|")
        legend = ", ".join(f"{labels[n]}={n}" for n in sorted(self._entries))
        return "\n".join(rows) + "\n" + legend

    def to_records(self):
        records = []
        for entry in sorted(self._entries.values(), key=lambda e: (e.start, e.job.name)):
            records.append(
                {
                    "job": entry.job.name,
                    "start": entry.start,
                    "completion": entry.completion,
                    "nbproc": entry.nbproc,
                    "processors": list(entry.processors),
                    "release_date": entry.job.release_date,
                    "weight": entry.job.weight,
                    "owner": entry.job.owner,
                }
            )
        return records


# -- the criteria, report and payload as they read the object model ---------


def ref_flow_times(schedule):
    return {e.job.name: e.completion - e.job.release_date for e in schedule}


def ref_reference_time(entry):
    try:
        best = entry.job.best_runtime()
    except AttributeError:
        best = entry.allocation.runtime
    return max(best, 1e-12)


def ref_tardiness(schedule):
    out = {}
    for entry in schedule:
        due = entry.job.due_date
        out[entry.job.name] = 0.0 if due is None else max(0.0, entry.completion - due)
    return out


def ref_mean_completion(s):
    return 0.0 if len(s) == 0 else sum(e.completion for e in s) / len(s)


def ref_mean_stretch(s):
    return 0.0 if len(s) == 0 else sum(ref_flow_times(s).values()) / len(s)


def ref_max_stretch(s):
    flows = ref_flow_times(s)
    return max(flows.values()) if flows else 0.0


def ref_mean_normalized_stretch(s):
    if len(s) == 0:
        return 0.0
    total = 0.0
    for entry in s:
        total += (entry.completion - entry.job.release_date) / ref_reference_time(entry)
    return total / len(s)


def ref_max_normalized_stretch(s):
    worst = 0.0
    for entry in s:
        worst = max(worst, (entry.completion - entry.job.release_date) / ref_reference_time(entry))
    return worst


def ref_throughput(s, horizon=None):
    horizon = s.makespan() if horizon is None else horizon
    if horizon <= 0:
        return 0.0
    return sum(1 for e in s if e.completion <= horizon + 1e-12) / horizon


def ref_max_tardiness(s):
    values = ref_tardiness(s).values()
    return max(values) if values else 0.0


def ref_normalized_makespan(s):
    work = s.total_work()
    return 0.0 if work <= 0 else s.makespan() * s.machine_count / work


REF_CRITERIA = {
    "makespan": lambda s: s.makespan(),
    "sum_completion": lambda s: sum(e.completion for e in s),
    "mean_completion": ref_mean_completion,
    "weighted_completion": lambda s: sum(e.job.weight * e.completion for e in s),
    "mean_stretch": ref_mean_stretch,
    "sum_stretch": lambda s: sum(ref_flow_times(s).values()),
    "max_stretch": ref_max_stretch,
    "mean_normalized_stretch": ref_mean_normalized_stretch,
    "max_normalized_stretch": ref_max_normalized_stretch,
    "throughput": ref_throughput,
    "total_tardiness": lambda s: sum(ref_tardiness(s).values()),
    "max_tardiness": ref_max_tardiness,
    "normalized_makespan": ref_normalized_makespan,
}


def ref_report(s):
    return {
        "n_jobs": len(s),
        "makespan": s.makespan(),
        "sum_completion": REF_CRITERIA["sum_completion"](s),
        "mean_completion": ref_mean_completion(s),
        "weighted_completion": REF_CRITERIA["weighted_completion"](s),
        "mean_stretch": ref_mean_stretch(s),
        "max_stretch": ref_max_stretch(s),
        "mean_normalized_stretch": ref_mean_normalized_stretch(s),
        "max_normalized_stretch": ref_max_normalized_stretch(s),
        "throughput": ref_throughput(s),
        "total_tardiness": REF_CRITERIA["total_tardiness"](s),
        "max_tardiness": ref_max_tardiness(s),
        "late_jobs": sum(1 for t in ref_tardiness(s).values() if t > 1e-12),
        "utilization": s.utilization(),
        "total_work": s.total_work(),
    }


def ref_payload(s):
    return [
        (e.job.name, repr(e.start), list(e.processors), repr(e.allocation.runtime))
        for e in s
    ]


def ref_usage(s):
    stats = {}
    for entry in s:
        bucket = stats.setdefault(
            entry.job.owner or "(unowned)",
            {"jobs": 0.0, "work": 0.0, "mean_flow": 0.0, "max_flow": 0.0},
        )
        flow = entry.completion - entry.job.release_date
        bucket["jobs"] += 1
        bucket["work"] += entry.allocation.work
        bucket["mean_flow"] += flow
        bucket["max_flow"] = max(bucket["max_flow"], flow)
    for bucket in stats.values():
        if bucket["jobs"] > 0:
            bucket["mean_flow"] /= bucket["jobs"]
    return stats


# -- strategies -------------------------------------------------------------

NAMES = ["a", "b", "c", "d", "e", "f", "g"]
times = st.one_of(
    st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 1.0 - 5e-10, 1, -0.0]),
    st.floats(min_value=0.0, max_value=12.0),
)


@st.composite
def jobs(draw, name):
    release = draw(st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.0, 4.0)))
    common = dict(
        name=name,
        release_date=release,
        weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
        due_date=draw(st.one_of(st.none(), st.floats(min_value=release, max_value=release + 8))),
        owner=draw(st.sampled_from([None, "x", "y"])),
    )
    if draw(st.booleans()):
        duration = draw(st.one_of(st.sampled_from([1.0, 2.0]), st.floats(0.1, 6.0)))
        return RigidJob(nbproc=draw(st.integers(1, 3)), duration=duration, **common)
    k = draw(st.integers(1, 4))
    runtimes = draw(st.lists(st.floats(0.1, 6.0), min_size=k, max_size=k))
    return MoldableJob(
        runtimes=runtimes, min_procs=draw(st.integers(1, k)), enforce_monotony=False, **common
    )


@st.composite
def placements(draw, machine_count, names=NAMES):
    """(job, start, processors, runtime) tuples, valid or not."""

    # Mostly well-formed rows (so schedules grow and overlap), with every
    # kind of bad row mixed in.
    valid = st.lists(
        st.integers(0, machine_count - 1), min_size=1, max_size=min(machine_count, 3), unique=True
    )
    anything = st.lists(st.integers(-1, machine_count), max_size=4)
    positive = st.floats(0.05, 6.0)
    out = []
    for _ in range(draw(st.integers(0, 10))):
        job = draw(jobs(draw(st.sampled_from(names))))
        start = draw(st.one_of(times, times, times, st.floats(-2.0, -1e-9)))
        processors = draw(st.one_of(valid, valid, valid, anything))
        runtime = draw(
            st.one_of(positive, positive, st.none(), st.sampled_from([0.0, -1.0, 1.0, 2.0, 3]))
        )
        out.append((job, start, processors, runtime))
    return out


@st.composite
def reservations(draw, machine_count):
    out = []
    for i in range(draw(st.integers(0, 2))):
        start = draw(times)
        procs = draw(st.lists(st.integers(0, machine_count), min_size=1, max_size=2, unique=True))
        out.append(Reservation(tuple(procs), start, start + draw(st.floats(0.1, 4.0)), f"r{i}"))
    return out


@st.composite
def schedule_pairs(draw, machine_count=None, names=NAMES):
    """The same placements applied to both sides; ``add`` outcomes must match."""

    m = machine_count or draw(st.integers(1, 4))
    res = draw(reservations(m))
    new, old = Schedule(m, reservations=res), ObjectSchedule(m, reservations=res)
    for job, start, processors, runtime in draw(placements(m, names)):
        got = outcome(lambda: new.add(job, start, processors, runtime))
        want = outcome(lambda: old.add(job, start, processors, runtime))
        assert got[0] == want[0], (got, want)
        if want[0] == "error":
            assert got == want
    return new, old


def outcome(call):
    try:
        value = call()
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return ("error", type(exc), str(exc))
    return ("ok", value)


def bits(value):
    """Bit-exact comparison key: ``repr`` tells -0.0, nan and float/int apart."""

    return repr(value)


def assert_same(new, old):
    # Readers get the live column lists; none of them may change a row.
    columns = new.columns
    before = bits(columns)
    assert len(new) == len(old)
    assert list(new) == list(old)
    assert new.entries == list(old)
    assert bits([(e.start, e.completion, e.allocation) for e in new]) == bits(
        [(e.start, e.completion, e.allocation) for e in old]
    )
    for entry in old:
        assert entry.job.name in new
        assert bits(new[entry.job.name]) == bits(entry)
    assert new.jobs == old.jobs
    assert bits(new.completion_times()) == bits(old.completion_times())
    assert new.reservations == old.reservations
    for name, criterion in ALL_CRITERIA.items():
        assert bits(criterion(new)) == bits(REF_CRITERIA[name](old)), name
    assert bits(CriteriaReport.from_schedule(new).as_dict()) == bits(ref_report(old))
    for horizon in (0.0, 1.0, 4.5):
        assert bits(new.utilization(horizon)) == bits(old.utilization(horizon))
        assert bits(ALL_CRITERIA["throughput"](new, horizon)) == bits(ref_throughput(old, horizon))
    for check in (True, False):
        got = outcome(lambda: new.validate(check_release_dates=check))
        want = outcome(lambda: old.validate(check_release_dates=check))
        assert got == want
        assert new.is_valid(check_release_dates=check) == (want[0] == "ok")
    assert bits(new.to_records()) == bits(old.to_records())
    assert new.to_gantt(width=30) == old.to_gantt(width=30)
    assert bits(schedule_payload(new)) == bits(ref_payload(old))
    assert bits(community_usage(new)) == bits(ref_usage(old))
    assert all(map(operator.is_, new.columns, columns))
    assert bits(new.columns) == before


# -- properties -------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(pair=schedule_pairs())
def test_add_and_every_reader_match_the_object_model(pair):
    assert_same(*pair)


@settings(max_examples=60, deadline=None)
@given(pair=schedule_pairs(), delta=st.one_of(times, st.floats(-3.0, 0.0)))
def test_shift_matches(pair, delta):
    new, old = pair
    got, want = outcome(lambda: new.shift(delta)), outcome(lambda: old.shift(delta))
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want
    else:
        assert_same(got[1], want[1])
    assert_same(new, old)  # the source is left alone


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_merge_matches(data):
    m = data.draw(st.integers(1, 4))
    left, left_old = data.draw(schedule_pairs(m, ["a", "b", "c", "d"]))
    other_m = data.draw(st.sampled_from([m, m, m + 1]))
    right, right_old = data.draw(schedule_pairs(other_m, ["d", "e", "f", "g"]))
    got = outcome(lambda: left.merge(right))
    want = outcome(lambda: left_old.merge(right_old))
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want
    else:
        assert_same(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extend_with_offset_matches_adding_entry_by_entry(data):
    """The decentralized union: per-cluster rows on one virtual platform."""

    m = data.draw(st.integers(1, 3))
    part, part_old = data.draw(schedule_pairs(m, ["a", "b", "c"]))
    offset = data.draw(st.integers(-1, 3))
    size = data.draw(st.integers(1, 7))
    base, base_old = data.draw(schedule_pairs(size, ["c", "x", "y"]))
    got = outcome(lambda: base.extend(part, processor_offset=offset))
    want = outcome(lambda: [
        base_old.add(e.job, e.start, [p + offset for p in e.processors], e.allocation.runtime)
        for e in part_old
    ])
    assert got[0] == want[0]
    if want[0] == "error":
        assert got == want
    else:
        assert_same(base, base_old)


@settings(max_examples=40, deadline=None)
@given(
    m=st.integers(1, 16),
    rows=st.lists(
        st.tuples(times, st.floats(0.05, 20.0), st.integers(1, 4), st.integers(0, 15)),
        min_size=8,
        max_size=80,
    ),
    weights=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=7),
)
def test_long_schedules_match(m, rows, weights):
    """Enough rows that any change of summation order shows in the floats."""

    new, old = Schedule(m), ObjectSchedule(m)
    for i, (start, runtime, width, first) in enumerate(rows):
        job = RigidJob(
            name=f"j{i:02d}",
            nbproc=min(width, m),
            duration=runtime,
            release_date=start / 3,
            weight=weights[i % len(weights)],
            due_date=start + 1.0,
        )
        processors = [(first + k) % m for k in range(min(width, m))]
        new.add(job, start, processors)
        old.add(job, start, processors)
    assert_same(new, old)
