"""Unit tests of arrival processes, parametric bags, communities and SWF I/O."""

import io

import pytest

from repro.core.job import MoldableJob, ParametricSweep
from repro.workload.arrivals import (
    bursty_arrivals,
    diurnal_arrivals,
    offline_arrivals,
    poisson_arrivals,
    scaled_load_arrivals,
)
from repro.workload.communities import (
    COMMUNITY_PROFILES,
    community_workload,
    grid_workload,
)
from repro.workload.models import generate_rigid_jobs
from repro.workload.parametric import generate_parametric_bags, total_work
from repro.workload.swf import jobs_to_swf, swf_to_jobs


class TestArrivals:
    def test_offline_sets_everything_to_zero(self):
        jobs = generate_rigid_jobs(10, 8, random_state=1)
        released = offline_arrivals(jobs)
        assert all(j.release_date == 0.0 for j in released)
        # Original jobs are left untouched (copies are returned).
        assert released[0] is not jobs[0]

    def test_poisson_reproducible_and_sorted(self):
        jobs = generate_rigid_jobs(20, 8, random_state=2)
        a = poisson_arrivals(jobs, rate=0.5, random_state=11)
        b = poisson_arrivals(jobs, rate=0.5, random_state=11)
        assert [j.release_date for j in a] == [j.release_date for j in b]
        dates = [j.release_date for j in sorted(a, key=lambda j: j.name)]
        assert all(d >= 0 for d in dates)
        assert dates == sorted(dates)   # names are assigned in arrival order

    def test_poisson_rate_controls_span(self):
        jobs = generate_rigid_jobs(200, 8, random_state=3)
        fast = poisson_arrivals(jobs, rate=10.0, random_state=4)
        slow = poisson_arrivals(jobs, rate=0.1, random_state=4)
        assert max(j.release_date for j in fast) < max(j.release_date for j in slow)

    def test_poisson_argument_validation(self):
        jobs = generate_rigid_jobs(5, 4, random_state=5)
        with pytest.raises(ValueError):
            poisson_arrivals(jobs)
        with pytest.raises(ValueError):
            poisson_arrivals(jobs, rate=1.0, mean_interarrival=1.0)
        with pytest.raises(ValueError):
            poisson_arrivals(jobs, rate=-1.0)

    def test_bursty_arrivals_group_jobs(self):
        jobs = generate_rigid_jobs(25, 8, random_state=6)
        released = bursty_arrivals(jobs, burst_size=10, burst_gap=100.0, random_state=7)
        groups = {round(j.release_date // 100.0) for j in released}
        assert groups == {0, 1, 2}

    def test_scaled_load_arrivals_hits_target_utilization(self):
        jobs = generate_rigid_jobs(300, 16, random_state=8)
        released = scaled_load_arrivals(jobs, 16, target_utilization=0.5, random_state=9)
        span = max(j.release_date for j in released)
        total_area = sum(j.duration * j.nbproc for j in released)
        # Offered load ~ target utilisation (loose factor-two check: it is a
        # random process).
        offered = total_area / (span * 16)
        assert 0.2 < offered < 1.2


class TestParametricBags:
    def test_generation_ranges(self):
        bags = generate_parametric_bags(20, runs_range=(10, 100), run_time_range=(0.5, 1.5),
                                        random_state=1)
        assert len(bags) == 20
        assert all(10 <= b.n_runs <= 100 for b in bags)
        assert all(0.5 <= b.run_time <= 1.5 for b in bags)
        assert total_work(bags) == pytest.approx(sum(b.n_runs * b.run_time for b in bags))

    def test_release_spread(self):
        bags = generate_parametric_bags(10, release_spread=50.0, random_state=2)
        assert any(b.release_date > 0 for b in bags)
        assert all(b.release_date <= 50.0 for b in bags)

    def test_invalid(self):
        with pytest.raises(ValueError):
            generate_parametric_bags(-1)
        with pytest.raises(ValueError):
            generate_parametric_bags(1, runs_range=(0, 10))
        with pytest.raises(ValueError):
            generate_parametric_bags(1, run_time_range=(0.0, 1.0))


class TestCommunities:
    def test_profiles_cover_the_four_paper_communities(self):
        assert set(COMMUNITY_PROFILES) == {
            "numerical-physics", "computer-science", "astrophysics", "medical-research",
        }

    def test_physicists_jobs_are_long_and_sequential(self):
        jobs = community_workload("numerical-physics", 50, 64, random_state=1, online=False)
        sequential = sum(1 for j in jobs if j.max_procs == 1)
        assert sequential >= 40          # "long sequential jobs"
        assert min(j.sequential_time() for j in jobs) >= 24.0

    def test_computer_science_jobs_are_short(self):
        cs = community_workload("computer-science", 50, 64, random_state=1, online=False)
        phys = community_workload("numerical-physics", 50, 64, random_state=1, online=False)
        mean_cs = sum(j.sequential_time() for j in cs) / len(cs)
        mean_phys = sum(j.sequential_time() for j in phys) / len(phys)
        assert mean_cs < mean_phys / 10

    def test_owner_is_set(self):
        jobs = community_workload("astrophysics", 5, 16, random_state=2)
        assert all(j.owner == "astrophysics" for j in jobs)

    def test_unknown_community_rejected(self):
        with pytest.raises(KeyError):
            community_workload("chemistry", 5, 16)

    def test_grid_workload_returns_bags(self):
        bags = grid_workload("medical-research", random_state=3)
        assert all(isinstance(b, ParametricSweep) for b in bags)
        assert all(b.owner == "medical-research" for b in bags)


class TestSWF:
    def test_round_trip(self):
        jobs = generate_rigid_jobs(15, 8, random_state=5)
        text = jobs_to_swf(jobs, comment="round trip test")
        parsed = swf_to_jobs(text)
        assert len(parsed) == 15
        original = {j.name.split("-")[-1]: j for j in jobs}
        # Runtimes and processor counts survive the round trip.
        durations = sorted(round(j.duration, 4) for j in jobs)
        parsed_durations = sorted(round(j.duration, 4) for j in parsed)
        assert durations == pytest.approx(parsed_durations)
        assert sorted(j.nbproc for j in jobs) == sorted(j.nbproc for j in parsed)

    def test_moldable_jobs_exported_with_min_allocation(self):
        job = MoldableJob(name="m", runtimes=[10.0, 6.0], weight=2.0)
        text = jobs_to_swf([job])
        parsed = swf_to_jobs(text)
        assert parsed[0].nbproc == 1
        assert parsed[0].duration == pytest.approx(10.0)

    def test_comments_and_blank_lines_ignored(self):
        text = "; header\n\n# another comment\n1 0.0 0 5.0 2\n"
        jobs = swf_to_jobs(text)
        assert len(jobs) == 1
        assert jobs[0].nbproc == 2

    def test_negative_runtime_lines_skipped(self):
        text = "1 0.0 0 -1 4\n2 0.0 0 3.0 2\n"
        assert len(swf_to_jobs(text)) == 1

    def test_file_like_input(self):
        text = "1 0.0 0 5.0 2\n"
        assert len(swf_to_jobs(io.StringIO(text))) == 1

    def test_malformed_line_rejected_in_strict_mode(self):
        with pytest.raises(ValueError):
            swf_to_jobs("1 2 3\n", strict=True)

    def test_malformed_line_skipped_by_default(self):
        # Truncated traces are common in the archive; the tolerant default
        # keeps the parsable jobs instead of raising.
        assert swf_to_jobs("1 2 3\n2 0.0 0 3.0 2\n") == swf_to_jobs("2 0.0 0 3.0 2\n")

    def test_unsupported_job_type_rejected(self):
        bag = ParametricSweep(name="s", n_runs=3, run_time=1.0)
        with pytest.raises(TypeError):
            jobs_to_swf([bag])


class TestDiurnalArrivals:
    def test_reproducible_for_a_fixed_seed(self):
        jobs = generate_rigid_jobs(30, 8, random_state=4)
        a = diurnal_arrivals(jobs, mean_interarrival=0.5, random_state=7)
        b = diurnal_arrivals(jobs, mean_interarrival=0.5, random_state=7)
        assert [j.release_date for j in a] == [j.release_date for j in b]

    def test_release_dates_increase_in_name_order(self):
        jobs = generate_rigid_jobs(25, 8, random_state=5)
        released = diurnal_arrivals(jobs, mean_interarrival=1.0, random_state=3)
        dates = [j.release_date for j in released]
        assert dates == sorted(dates)
        assert all(d >= 0 for d in dates)

    def test_arrivals_concentrate_around_the_peak(self):
        import math

        jobs = generate_rigid_jobs(400, 8, random_state=6)
        released = diurnal_arrivals(
            jobs, mean_interarrival=0.25, period=24.0, peak_to_trough=9.0,
            random_state=11,
        )
        # rate(t) ~ 1 + a*sin(2 pi t / 24): the sin>0 half-day is the peak.
        peak = sum(1 for j in released if math.sin(2 * math.pi * j.release_date / 24.0) > 0)
        assert peak > 0.6 * len(released)

    def test_flat_cycle_matches_poisson_style_spread(self):
        jobs = generate_rigid_jobs(50, 8, random_state=7)
        released = diurnal_arrivals(
            jobs, mean_interarrival=1.0, peak_to_trough=1.0, random_state=13
        )
        assert len(released) == 50

    def test_parameter_validation(self):
        jobs = generate_rigid_jobs(3, 4, random_state=8)
        with pytest.raises(ValueError):
            diurnal_arrivals(jobs, mean_interarrival=0.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(jobs, mean_interarrival=1.0, period=-1.0)
        with pytest.raises(ValueError):
            diurnal_arrivals(jobs, mean_interarrival=1.0, peak_to_trough=0.5)

    def test_original_jobs_untouched(self):
        jobs = generate_rigid_jobs(5, 4, random_state=9)
        released = diurnal_arrivals(jobs, mean_interarrival=1.0, random_state=1)
        assert released[0] is not jobs[0]
        assert all(j.release_date == 0.0 for j in jobs)
