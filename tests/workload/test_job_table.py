"""Equivalence suite for the struct-of-arrays :class:`JobTable`.

The table is the vectorized fast path of the workload generators: it
validates profiles in numpy passes, derives the bound columns once, and
materializes :class:`MoldableJob` objects with pre-seeded memo caches.  The
contract is *bit identity* with the scalar per-job path -- same accepted
profiles, same rejection messages, same floats in every derived value --
because the sweep digests are computed over results of these jobs.
"""

import random

import numpy as np
import pytest

from repro.core.job import MoldableJob
from repro.workload import JobTable


def _random_profiles(seed, count, *, max_len=40):
    """Monotone (runtime down, work up) random profiles plus names/weights."""

    rng = random.Random(seed)
    names, profiles, weights, releases = [], [], [], []
    for i in range(count):
        length = rng.randrange(1, max_len)
        runtime = rng.uniform(5.0, 500.0)
        profile = [runtime]
        for k in range(1, length):
            # Work k*p(k) may only grow: divide by a factor <= (k+1)/k.
            factor = rng.uniform(max(0.5, k / (k + 1)), 1.0)
            runtime *= factor
            profile.append(runtime)
        names.append(f"job-{seed}-{i}")
        profiles.append(profile)
        weights.append(rng.uniform(0.1, 10.0))
        releases.append(rng.uniform(0.0, 100.0))
    return names, profiles, weights, releases


def _reference_jobs(names, profiles, weights=None, releases=None):
    return [
        MoldableJob(
            name=name,
            release_date=releases[i] if releases is not None else 0.0,
            weight=weights[i] if weights is not None else 1.0,
            runtimes=profiles[i],
        )
        for i, name in enumerate(names)
    ]


def _assert_same_job(materialized, reference):
    assert materialized.name == reference.name
    assert materialized.release_date == reference.release_date
    assert materialized.weight == reference.weight
    assert materialized.due_date is None
    assert materialized.owner is None
    assert materialized.min_procs == reference.min_procs
    assert materialized.enforce_monotony is True
    assert isinstance(materialized.runtimes, tuple)
    assert materialized.runtimes == reference.runtimes
    # Bit-identical derived values (the scalar side computes them lazily).
    assert materialized.best_runtime() == reference.best_runtime()
    assert materialized.min_work() == reference.min_work()
    assert materialized._profile_non_increasing() == reference._profile_non_increasing()


@pytest.mark.parametrize("seed", range(5))
def test_to_jobs_matches_reference_construction(seed):
    """from_profiles + to_jobs == per-job constructor, field for field."""

    names, profiles, weights, releases = _random_profiles(seed, 60)
    table = JobTable.from_profiles(
        names, profiles, weights=weights, release_dates=releases
    )
    jobs = table.to_jobs()
    reference = _reference_jobs(names, profiles, weights, releases)
    assert len(jobs) == len(reference)
    for job, ref in zip(jobs, reference):
        _assert_same_job(job, ref)


def test_to_jobs_pre_seeds_memo_caches():
    names, profiles, weights, releases = _random_profiles(7, 10)
    job = JobTable.from_profiles(names, profiles).to_jobs()[0]
    assert "_best_runtime" in job.__dict__
    assert "_min_work" in job.__dict__
    assert "_non_increasing" in job.__dict__
    # The seeded values equal a from-scratch recompute.
    fresh = MoldableJob(name=job.name, runtimes=job.runtimes)
    assert job.best_runtime() == fresh.best_runtime()
    assert job.min_work() == fresh.min_work()


@pytest.mark.parametrize("seed", range(3))
def test_bound_columns_match_scalar_methods(seed):
    names, profiles, weights, releases = _random_profiles(seed + 100, 40)
    table = JobTable.from_profiles(names, profiles, weights=weights)
    reference = _reference_jobs(names, profiles, weights)
    best = table.best_runtime_column()
    mwork = table.min_work_column()
    noninc = table.non_increasing_column()
    for i, ref in enumerate(reference):
        assert best[i] == ref.best_runtime()
        assert mwork[i] == ref.min_work()
        assert bool(noninc[i]) == ref._profile_non_increasing()


def test_from_jobs_round_trip_with_min_procs():
    """min_procs > 1 takes the per-row reduce path; round trip stays exact."""

    rng = random.Random(42)
    jobs = []
    for i in range(25):
        _, profiles, _, _ = _random_profiles(1000 + i, 1, max_len=20)
        profile = profiles[0]
        jobs.append(
            MoldableJob(
                name=f"mp-{i}",
                release_date=rng.uniform(0, 10),
                weight=rng.uniform(0.5, 2.0),
                runtimes=profile,
                min_procs=rng.randrange(1, len(profile) + 1),
            )
        )
    table = JobTable.from_jobs(jobs)
    assert not (table.min_procs == 1).all()  # the loop fallback is exercised
    best = table.best_runtime_column()
    mwork = table.min_work_column()
    for i, (job, out) in enumerate(zip(jobs, table.to_jobs())):
        assert best[i] == job.best_runtime()
        assert mwork[i] == job.min_work()
        _assert_same_job(out, job)


def test_empty_table():
    table = JobTable.from_profiles([], [])
    assert len(table) == 0
    assert table.to_jobs() == []
    assert table.best_runtime_column().shape == (0,)
    assert table.min_work_column().shape == (0,)


def test_single_point_profiles():
    table = JobTable.from_profiles(["a", "b"], [[3.0], [5.0]])
    jobs = table.to_jobs()
    assert [j.best_runtime() for j in jobs] == [3.0, 5.0]
    assert [j.min_work() for j in jobs] == [3.0, 5.0]


# ---------------------------------------------------------------------------
# Rejection parity: the vectorized validator must raise the *same* message
# the scalar constructor raises, for the *first* offending job.
# ---------------------------------------------------------------------------


def _scalar_message(name, profile, *, release=0.0, weight=1.0):
    with pytest.raises(ValueError) as err:
        MoldableJob(name=name, release_date=release, weight=weight, runtimes=profile)
    return str(err.value)


@pytest.mark.parametrize(
    "profile",
    [
        [5.0, 6.0],                         # runtime increases
        [5.0, 4.0, 4.5],                    # runtime increases later
        [10.0, 4.0],                        # work decreases (2*4 < 1*10)
        [5.0, 0.0],                         # non-positive runtime
        [5.0, -1.0, 1.0],                   # negative runtime
        list(range(20, 0, -1)) + [25.0],    # long profile: vectorized check path
    ],
)
def test_invalid_profile_message_matches_scalar(profile):
    profile = [float(p) for p in profile]
    expected = _scalar_message("bad", profile)
    good = [8.0, 7.0, 6.5]
    with pytest.raises(ValueError) as err:
        JobTable.from_profiles(["ok", "bad", "ok2"], [good, profile, good])
    assert str(err.value) == expected


def test_negative_release_and_weight_messages_match_scalar():
    expected = _scalar_message("neg-r", [2.0], release=-1.0)
    with pytest.raises(ValueError) as err:
        JobTable.from_profiles(["neg-r"], [[2.0]], release_dates=[-1.0])
    assert str(err.value) == expected

    expected = _scalar_message("neg-w", [2.0], weight=-0.5)
    with pytest.raises(ValueError) as err:
        JobTable.from_profiles(["neg-w"], [[2.0]], weights=[-0.5])
    assert str(err.value) == expected


def test_empty_profile_rejected():
    with pytest.raises(ValueError, match="empty runtime profile"):
        JobTable.from_profiles(["e"], [[]])
    with pytest.raises(ValueError, match="job 'b': empty runtime profile"):
        JobTable.from_csr(["a", "b"], np.array([3.0, 2.0]), np.array([0, 2, 2]))


def test_from_csr_checks_its_offsets():
    data = np.array([4.0, 2.0, 5.0])
    for ptr in ([0, 2], [1, 2, 3], [0, 2, 4]):
        with pytest.raises(ValueError, match="offsets"):
            JobTable.from_csr(["a", "b"], data, np.array(ptr))
    table = JobTable.from_csr(["a", "b"], data, np.array([0, 2, 3]))
    same = JobTable.from_profiles(["a", "b"], [[4.0, 2.0], [5.0]])
    assert [j.runtimes for j in table.to_jobs()] == [j.runtimes for j in same.to_jobs()]


def test_tolerated_jitter_accepted_but_flagged_not_monotone():
    """A runtime increase within the 1e-9 tolerance passes validation (as in
    the scalar constructor) but the *exact* non-increasing flag is False --
    both sides must agree on the distinction."""

    profile = [5.0, 5.0 * (1 + 1e-12), 4.0]
    reference = MoldableJob(name="jitter", runtimes=profile)
    table = JobTable.from_profiles(["jitter"], [profile])
    (job,) = table.to_jobs()
    assert reference._profile_non_increasing() is False
    assert job._profile_non_increasing() is False


def test_length_mismatches_rejected():
    with pytest.raises(ValueError):
        JobTable.from_profiles(["a"], [[1.0]], weights=[1.0, 2.0])
    with pytest.raises(ValueError):
        JobTable.from_profiles(["a"], [[1.0]], release_dates=[])
    with pytest.raises(ValueError):
        JobTable.from_profiles(["a", "b"], [[1.0]])


def test_from_jobs_rejects_non_moldable():
    from repro.core.job import RigidJob

    with pytest.raises(TypeError):
        JobTable.from_jobs([RigidJob(name="r", nbproc=2, duration=1.0)])


def test_generator_routes_through_table_with_primed_memos():
    """generate_moldable_jobs materializes through the table: every job comes
    back with its memo caches already populated."""

    from repro.workload.models import generate_moldable_jobs

    jobs = generate_moldable_jobs(30, 32, random_state=9)
    assert jobs
    for job in jobs:
        assert "_best_runtime" in job.__dict__
        assert job.best_runtime() == min(job.runtimes[job.min_procs - 1 :])
        assert job.min_work() == min(
            (k + 1) * p
            for k, p in enumerate(job.runtimes)
            if k + 1 >= job.min_procs
        )


# ---------------------------------------------------------------------------
# Owners column and the community generator routed through the table.
# ---------------------------------------------------------------------------


def test_owners_round_trip_through_to_jobs():
    names, profiles, weights, releases = _random_profiles(11, 12)
    owners = [None if i % 3 == 0 else f"community-{i % 4}" for i in range(12)]
    table = JobTable.from_profiles(
        names, profiles, weights=weights, release_dates=releases, owners=owners
    )
    jobs = table.to_jobs()
    assert [job.owner for job in jobs] == owners
    # from_jobs keeps them too, so the table round-trips completely.
    again = JobTable.from_jobs(jobs).to_jobs()
    assert [job.owner for job in again] == owners
    for job, ref in zip(again, jobs):
        assert job.__dict__ == ref.__dict__


def test_owners_default_to_none_and_length_is_checked():
    jobs = JobTable.from_profiles(["a", "b"], [[2.0], [3.0]]).to_jobs()
    assert [job.owner for job in jobs] == [None, None]
    with pytest.raises(ValueError, match="owners"):
        JobTable.from_profiles(["a", "b"], [[2.0], [3.0]], owners=["x"])


def _reference_community_workload(profile, n_jobs, machine_count, rng, online):
    """The per-job construction community_workload used before the table."""

    import dataclasses
    import math

    from repro.core.speedup import AmdahlSpeedup, make_runtime_table

    lo, hi = profile.runtime_range
    jobs = []
    for i in range(n_jobs):
        seq = float(math.exp(rng.uniform(math.log(lo), math.log(hi))))
        if rng.random() < profile.sequential_fraction:
            runtimes = [seq]
        else:
            max_procs = min(profile.max_parallelism, machine_count)
            max_procs = int(rng.integers(2, max_procs + 1)) if max_procs >= 2 else 1
            s_lo, s_hi = profile.serial_fraction_range
            model = AmdahlSpeedup(float(rng.uniform(s_lo, s_hi)))
            runtimes = make_runtime_table(seq, max_procs, model)
        jobs.append(
            MoldableJob(
                name=f"{profile.name}-{i:05d}",
                runtimes=runtimes,
                owner=profile.name,
                weight=1.0,
            )
        )
    if online:
        ordered = sorted(jobs, key=lambda j: j.name)
        gaps = rng.exponential(profile.mean_interarrival, size=len(ordered))
        jobs = [
            dataclasses.replace(job, release_date=float(max(0.0, t)))
            for job, t in zip(ordered, np.cumsum(gaps))
        ]
    return jobs


@pytest.mark.parametrize("online", [False, True])
@pytest.mark.parametrize("machine_count", [1, 16, 64])
def test_community_workload_matches_per_job_construction(online, machine_count):
    from repro.workload.communities import COMMUNITY_PROFILES, community_workload

    for seed, (name, profile) in enumerate(sorted(COMMUNITY_PROFILES.items())):
        got = community_workload(
            name, 40, machine_count, random_state=seed, online=online
        )
        expected = _reference_community_workload(
            profile, 40, machine_count, np.random.default_rng(seed), online
        )
        assert len(got) == len(expected)
        for job, ref in zip(got, expected):
            assert type(job) is MoldableJob
            assert job.owner == ref.owner == name
            _assert_same_state(job, ref)


def _assert_same_state(job, ref):
    ref.best_runtime()
    ref.min_work()
    ref._profile_non_increasing()
    assert job.__dict__ == ref.__dict__


def test_community_workload_shares_the_rng_stream_like_before():
    """A shared generator ends in the same state, so per-community draws
    can chain through one stream as before."""

    from repro.workload.communities import COMMUNITY_PROFILES, community_workload

    profile = COMMUNITY_PROFILES["astrophysics"]
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for n_jobs in (0, 7, 25):
        community_workload(profile, n_jobs, 32, random_state=rng_a)
        _reference_community_workload(profile, n_jobs, 32, rng_b, True)
    assert rng_a.random() == rng_b.random()
