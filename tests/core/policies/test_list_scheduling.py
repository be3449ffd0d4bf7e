"""Unit tests of the list-scheduling policies."""


from repro.core.criteria import makespan, weighted_completion_time
from repro.core.policies.base import MoldableAllocator
from repro.core.policies.list_scheduling import ListScheduler
from repro.workload.models import generate_mixed_jobs, generate_rigid_jobs


class TestListScheduler:
    def test_empty_instance(self):
        schedule = ListScheduler("lpt").schedule([], 4)
        assert len(schedule) == 0

    def test_all_jobs_scheduled_and_valid(self, small_rigid_jobs):
        schedule = ListScheduler("lpt").schedule(small_rigid_jobs, 4)
        schedule.validate()
        assert len(schedule) == len(small_rigid_jobs)

    def test_lpt_beats_or_matches_fcfs_on_makespan(self):
        jobs = generate_rigid_jobs(40, 8, random_state=11)
        lpt = ListScheduler("lpt").schedule(jobs, 8)
        fcfs = ListScheduler("fcfs").schedule(jobs, 8)
        # LPT is not always better instance-by-instance, but on this seeded
        # instance it is, and both must be valid.
        lpt.validate()
        fcfs.validate()
        assert makespan(lpt) <= makespan(fcfs) + 1e-9

    def test_wspt_beats_lpt_on_weighted_completion(self):
        jobs = generate_rigid_jobs(40, 8, random_state=13)
        wspt = ListScheduler("wspt").schedule(jobs, 8)
        lpt = ListScheduler("lpt").schedule(jobs, 8)
        assert weighted_completion_time(wspt) <= weighted_completion_time(lpt) + 1e-9

    def test_moldable_jobs_use_allocator(self, small_moldable_jobs):
        sequential = ListScheduler("lpt", MoldableAllocator("sequential"))
        parallel = ListScheduler("lpt", MoldableAllocator("min_runtime"))
        s_seq = sequential.schedule(small_moldable_jobs, 4)
        s_par = parallel.schedule(small_moldable_jobs, 4)
        s_seq.validate()
        s_par.validate()
        assert all(e.nbproc == 1 for e in s_seq)
        assert any(e.nbproc > 1 for e in s_par)

    def test_mixed_rigid_and_moldable(self):
        jobs = generate_mixed_jobs(20, 8, rigid_fraction=0.5, random_state=3)
        schedule = ListScheduler("area").schedule(jobs, 8)
        schedule.validate()
        assert len(schedule) == 20

    def test_policy_name(self):
        assert ListScheduler("spt").name == "list-spt"
