"""``MoldableAllocator.allocate`` against its per-``k`` definition.

The allocator reads candidate runtimes straight from ``job.runtimes`` and
scans from the largest allocation down.  The reference oracle below is the
original formulation: one range-checked ``job.runtime(k)`` call per
candidate, scanning upwards.  Every strategy must pick the same processor
count (and raise the same error) on every profile.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import MoldableJob, RigidJob
from repro.core.policies.base import MoldableAllocator, SchedulerError


def reference_allocate(allocator, job, machine_count):
    """The per-``k`` allocation loop, kept as an oracle."""

    if isinstance(job, RigidJob):
        if job.nbproc > machine_count:
            raise SchedulerError(
                f"rigid job {job.name!r} needs {job.nbproc} processors, "
                f"platform only has {machine_count}"
            )
        return job.nbproc
    upper = min(job.max_procs, machine_count)
    if job.min_procs > upper:
        raise SchedulerError(
            f"moldable job {job.name!r} needs at least {job.min_procs} "
            f"processors, platform only has {machine_count}"
        )
    candidates = range(job.min_procs, upper + 1)
    if allocator.strategy == "sequential":
        return job.min_procs
    if allocator.strategy == "min_runtime":
        return min(candidates, key=lambda k: (job.runtime(k), k))
    if allocator.strategy == "best_efficiency":
        base_eff = job.runtime(job.min_procs) * job.min_procs
        best = job.min_procs
        for k in candidates:
            if k * job.runtime(k) <= base_eff * (1 + 1e-9):
                best = k
        return best
    base_work = job.runtime(job.min_procs) * job.min_procs
    best = job.min_procs
    for k in candidates:
        efficiency = base_work / (k * job.runtime(k))
        if efficiency >= allocator.efficiency_threshold - 1e-12:
            best = k
    return best


# A step factor of 1.0 keeps the runtime (ties for min_runtime); the lower
# end k/(k+1) keeps the work constant (ties for best_efficiency).
_steps = st.lists(
    st.one_of(st.sampled_from([0.0, 1.0]), st.floats(min_value=0.0, max_value=1.0)),
    max_size=40,
)


@st.composite
def monotone_jobs(draw):
    """Moldable jobs whose runtime never rises and whose work never falls."""

    runtime = draw(st.floats(min_value=0.01, max_value=1e4))
    profile = [runtime]
    for k, step in enumerate(draw(_steps), start=1):
        low = k / (k + 1)
        runtime *= low + step * (1.0 - low)
        profile.append(runtime)
    min_procs = draw(st.integers(min_value=1, max_value=len(profile)))
    return MoldableJob(name="j", runtimes=profile, min_procs=min_procs)


@st.composite
def arbitrary_jobs(draw):
    """Unchecked profiles (``enforce_monotony=False``) that may dip and rise."""

    profile = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=1e4), min_size=1, max_size=40
        )
    )
    min_procs = draw(st.integers(min_value=1, max_value=len(profile)))
    return MoldableJob(
        name="j", runtimes=profile, min_procs=min_procs, enforce_monotony=False
    )


_allocators = st.builds(
    MoldableAllocator,
    st.sampled_from(MoldableAllocator.STRATEGIES),
    efficiency_threshold=st.one_of(
        st.sampled_from([1.0, 0.5]),
        st.floats(min_value=0.0, max_value=1.0, exclude_min=True),
    ),
)


def _assert_parity(allocator, job, machine_count):
    try:
        expected = reference_allocate(allocator, job, machine_count)
    except SchedulerError as error:
        with pytest.raises(SchedulerError) as got:
            allocator.allocate(job, machine_count)
        assert str(got.value) == str(error)
        return
    assert allocator.allocate(job, machine_count) == expected


@settings(max_examples=400, deadline=None)
@given(
    allocator=_allocators,
    job=monotone_jobs(),
    machine_count=st.integers(min_value=1, max_value=48),
)
def test_allocate_matches_reference_on_monotone_profiles(allocator, job, machine_count):
    _assert_parity(allocator, job, machine_count)


@settings(max_examples=200, deadline=None)
@given(
    allocator=_allocators,
    job=arbitrary_jobs(),
    machine_count=st.integers(min_value=1, max_value=48),
)
def test_allocate_matches_reference_on_unchecked_profiles(allocator, job, machine_count):
    _assert_parity(allocator, job, machine_count)


@pytest.mark.parametrize("strategy", MoldableAllocator.STRATEGIES)
@pytest.mark.parametrize("machine_count", [1, 2, 3, 5, 8, 64])
def test_allocate_matches_reference_on_fixed_cases(strategy, machine_count):
    profiles = [
        [10.0],
        [10.0, 5.0, 5.0, 5.0],          # runtime ties
        [10.0, 5.0, 10.0 / 3, 2.5],     # perfectly linear: constant work
        [8.0, 6.0, 5.0, 4.5, 4.4],
    ]
    for threshold in (1.0, 0.75, 0.5, 1e-6):
        allocator = MoldableAllocator(strategy, efficiency_threshold=threshold)
        for profile in profiles:
            for min_procs in range(1, len(profile) + 1):
                job = MoldableJob(name="j", runtimes=profile, min_procs=min_procs)
                _assert_parity(allocator, job, machine_count)
    rigid = RigidJob(name="r", nbproc=3, duration=1.0)
    _assert_parity(MoldableAllocator(strategy), rigid, machine_count)
