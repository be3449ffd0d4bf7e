"""Unit tests of schedules, allocations, reservations and validation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.allocation import (
    Allocation,
    Reservation,
    Schedule,
    ScheduleError,
    ScheduledJob,
    pack_contiguously,
)
from repro.core.job import MoldableJob, RigidJob


def rigid(name, nbproc=1, duration=1.0, **kw):
    return RigidJob(name=name, nbproc=nbproc, duration=duration, **kw)


class TestAllocation:
    def test_basic_properties(self):
        alloc = Allocation(processors=(0, 1, 2), runtime=4.0)
        assert alloc.nbproc == 3
        assert alloc.work == 12.0

    def test_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Allocation(processors=(0, 0), runtime=1.0)
        with pytest.raises(ValueError):
            Allocation(processors=(), runtime=1.0)
        with pytest.raises(ValueError):
            Allocation(processors=(0,), runtime=0.0)


class TestScheduledJob:
    def test_completion_and_overlap(self):
        a = ScheduledJob(rigid("a", 1, 5.0), 0.0, Allocation((0,), 5.0))
        b = ScheduledJob(rigid("b", 1, 5.0), 4.0, Allocation((0,), 5.0))
        c = ScheduledJob(rigid("c", 1, 5.0), 5.0, Allocation((0,), 5.0))
        d = ScheduledJob(rigid("d", 1, 5.0), 4.0, Allocation((1,), 5.0))
        assert a.completion == 5.0
        assert a.overlaps(b)
        assert not a.overlaps(c)   # back to back is not an overlap
        assert not a.overlaps(d)   # different processor

    def test_overlap_tolerance_matches_validate(self):
        # Touching within validate's 1e-9 slack is not an overlap, for
        # either the pair or the schedule holding it.
        first, second = rigid("first", 1, 1.0), rigid("second", 1, 1.0)
        schedule = Schedule(1)
        schedule.add(first, 0.0, [0])
        schedule.add(second, 1.0 - 5e-10, [0])
        assert schedule.is_valid()
        assert not schedule["first"].overlaps(schedule["second"])
        assert not schedule["second"].overlaps(schedule["first"])
        a = ScheduledJob(first, 0.0, Allocation((0,), 1.0))
        b = ScheduledJob(second, 1.0 - 5e-10, Allocation((0,), 1.0))
        assert not a.overlaps(b) and not b.overlaps(a)


class TestScheduleBasics:
    def test_add_and_makespan(self):
        schedule = Schedule(4)
        schedule.add(rigid("a", 2, 3.0), 0.0, [0, 1])
        schedule.add(rigid("b", 1, 5.0), 1.0, [2])
        assert len(schedule) == 2
        assert "a" in schedule
        assert schedule.makespan() == 6.0
        assert schedule.total_work() == pytest.approx(2 * 3.0 + 5.0)

    def test_duplicate_job_rejected(self):
        schedule = Schedule(2)
        schedule.add(rigid("a"), 0.0, [0])
        with pytest.raises(ValueError):
            schedule.add(rigid("a"), 1.0, [1])

    def test_processor_out_of_range_rejected(self):
        schedule = Schedule(2)
        with pytest.raises(ValueError):
            schedule.add(rigid("a"), 0.0, [2])

    def test_utilization(self):
        schedule = Schedule(2)
        schedule.add(rigid("a", 1, 4.0), 0.0, [0])
        schedule.add(rigid("b", 1, 4.0), 0.0, [1])
        assert schedule.utilization() == pytest.approx(1.0)
        schedule2 = Schedule(2)
        schedule2.add(rigid("c", 1, 4.0), 0.0, [0])
        assert schedule2.utilization() == pytest.approx(0.5)

    def test_shift_and_merge(self):
        s1 = Schedule(2)
        s1.add(rigid("a", 1, 2.0), 0.0, [0])
        s2 = Schedule(2)
        s2.add(rigid("b", 1, 2.0), 0.0, [1])
        shifted = s1.shift(5.0)
        assert shifted["a"].start == 5.0
        merged = s1.merge(s2)
        assert len(merged) == 2
        with pytest.raises(ValueError):
            s1.merge(Schedule(3))

    def test_empty_schedule(self):
        schedule = Schedule(3)
        assert schedule.makespan() == 0.0
        assert schedule.utilization() == 0.0
        assert schedule.to_gantt() == "(empty schedule)"
        schedule.validate()  # no jobs is trivially valid


class TestScheduleValidation:
    def test_detects_processor_overlap(self):
        schedule = Schedule(2)
        schedule.add(rigid("a", 1, 5.0), 0.0, [0])
        schedule.add(rigid("b", 1, 5.0), 3.0, [0])
        with pytest.raises(ScheduleError):
            schedule.validate()

    def test_back_to_back_is_valid(self):
        schedule = Schedule(1)
        schedule.add(rigid("a", 1, 5.0), 0.0, [0])
        schedule.add(rigid("b", 1, 5.0), 5.0, [0])
        schedule.validate()

    def test_detects_release_date_violation(self):
        schedule = Schedule(1)
        schedule.add(rigid("a", 1, 1.0, release_date=10.0), 0.0, [0])
        with pytest.raises(ScheduleError):
            schedule.validate()
        schedule.validate(check_release_dates=False)

    def test_detects_wrong_rigid_allocation(self):
        schedule = Schedule(4)
        schedule.add(rigid("a", 3, 1.0), 0.0, [0, 1], runtime=1.0)
        with pytest.raises(ScheduleError):
            schedule.validate()

    def test_detects_moldable_allocation_outside_profile(self):
        job = MoldableJob(name="m", runtimes=[4.0, 3.0])
        schedule = Schedule(4)
        schedule.add(job, 0.0, [0, 1, 2], runtime=3.0)
        with pytest.raises(ScheduleError):
            schedule.validate()

    def test_detects_reservation_conflict(self):
        reservation = Reservation(processors=(0,), start=2.0, end=4.0)
        schedule = Schedule(2, reservations=[reservation])
        schedule.add(rigid("a", 1, 5.0), 0.0, [0])
        with pytest.raises(ScheduleError):
            schedule.validate()
        ok = Schedule(2, reservations=[reservation])
        ok.add(rigid("a", 1, 5.0), 0.0, [1])
        ok.validate()

    def test_is_valid_helper(self):
        schedule = Schedule(1)
        schedule.add(rigid("a", 1, 5.0), 0.0, [0])
        schedule.add(rigid("b", 1, 5.0), 1.0, [0])
        assert not schedule.is_valid()


class TestReservation:
    def test_blocks(self):
        reservation = Reservation(processors=(1, 2), start=5.0, end=10.0)
        assert reservation.blocks(1, 6.0, 7.0)
        assert reservation.blocks(1, 0.0, 6.0)
        assert not reservation.blocks(1, 0.0, 5.0)
        assert not reservation.blocks(1, 10.0, 12.0)
        assert not reservation.blocks(0, 6.0, 7.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            Reservation(processors=(), start=0.0, end=1.0)
        with pytest.raises(ValueError):
            Reservation(processors=(0,), start=2.0, end=1.0)


class TestExports:
    def test_gantt_contains_all_processors(self):
        schedule = Schedule(3)
        schedule.add(rigid("a", 2, 3.0), 0.0, [0, 1])
        text = schedule.to_gantt(width=40)
        assert text.count("|") >= 6  # two bars per processor row
        assert "a" in text

    def test_records_are_sorted_by_start(self):
        schedule = Schedule(2)
        schedule.add(rigid("late", 1, 1.0), 5.0, [0])
        schedule.add(rigid("early", 1, 1.0), 0.0, [1])
        records = schedule.to_records()
        assert [r["job"] for r in records] == ["early", "late"]
        assert records[0]["completion"] == 1.0


class TestPackContiguously:
    def test_simple_packing(self):
        jobs = [rigid("a", 2, 3.0), rigid("b", 2, 3.0), rigid("c", 4, 1.0)]
        placements = [(jobs[0], 0.0, 2), (jobs[1], 0.0, 2), (jobs[2], 3.0, 4)]
        schedule = pack_contiguously(4, placements)
        schedule.validate()
        assert schedule.makespan() == 4.0

    def test_infeasible_profile_rejected(self):
        jobs = [rigid("a", 3, 2.0), rigid("b", 2, 2.0)]
        placements = [(jobs[0], 0.0, 3), (jobs[1], 0.0, 2)]
        with pytest.raises(ScheduleError):
            pack_contiguously(4, placements)


@settings(max_examples=40, deadline=None)
@given(
    durations=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=12),
    machines=st.integers(min_value=1, max_value=6),
)
def test_sequential_stacking_is_always_valid(durations, machines):
    """Property: stacking jobs one after the other on processor 0 is always valid."""

    schedule = Schedule(machines)
    t = 0.0
    for i, duration in enumerate(durations):
        job = RigidJob(name=f"j{i}", nbproc=1, duration=duration)
        schedule.add(job, t, [0])
        t += duration
    schedule.validate()
    assert schedule.makespan() == pytest.approx(sum(durations))
