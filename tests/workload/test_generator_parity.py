"""``generate_moldable_jobs`` against a per-job ``runtime_profile_array`` build.

The generator records each job's draws and builds every profile in one CSR
block.  The oracle below is the former formulation: the same scalar draw
loop, one speedup model and one ``runtime_profile_array`` per job, and one
``MoldableJob`` per profile through the validating constructor.  The jobs
must agree field by field, including the bound caches the table primes.
"""

import math

import numpy as np
import pytest

from repro.core.job import MoldableJob
from repro.core.speedup import AmdahlSpeedup, PowerLawSpeedup, runtime_profile_array
from repro.workload import models
from repro.workload.models import WorkloadConfig, figure2_workload, generate_moldable_jobs


def reference_moldable_jobs(n_jobs, machine_count, *, config=None, random_state=None,
                            name_prefix="moldable"):
    """The per-job profile loop, kept as an oracle."""

    config = config or WorkloadConfig()
    rng = np.random.default_rng(random_state)
    cap = min(config.max_procs or machine_count, machine_count)
    lo, hi = config.runtime_range
    runtimes = np.exp(rng.uniform(math.log(lo), math.log(hi), size=n_jobs))
    jobs = []
    for i in range(n_jobs):
        seq = float(runtimes[i])
        if rng.random() < config.sequential_fraction:
            profile = np.array([seq])
        else:
            if rng.random() < 0.5:
                model = AmdahlSpeedup(float(rng.uniform(*config.serial_fraction_range)))
            else:
                model = PowerLawSpeedup(float(rng.uniform(*config.power_alpha_range)))
            max_procs = int(rng.integers(2, cap + 1)) if cap >= 2 else 1
            profile = runtime_profile_array(seq, max_procs, model)
        weight = models._weight(rng, config.weight_scheme, seq)
        jobs.append(
            MoldableJob(name=f"{name_prefix}-{i:05d}", runtimes=profile.tolist(), weight=weight)
        )
    return jobs


def _fields(job):
    return (
        job.name,
        job.release_date,
        job.weight,
        job.runtimes,
        job.min_procs,
        job.best_runtime(),
        job.min_work(),
        job._profile_non_increasing(),
    )


def _assert_same_jobs(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        # The primed caches must already be there, not computed on demand.
        assert {"_best_runtime", "_min_work", "_non_increasing"} <= g.__dict__.keys()
        assert _fields(g) == _fields(w)
        assert g == w


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("scheme", ["unit", "work", "random"])
def test_matches_per_job_profiles(seed, scheme):
    config = WorkloadConfig(weight_scheme=scheme, sequential_fraction=0.2)
    got = generate_moldable_jobs(80, 64, config=config, random_state=seed)
    want = reference_moldable_jobs(80, 64, config=config, random_state=seed)
    _assert_same_jobs(got, want)


@pytest.mark.parametrize("family", ["parallel", "non_parallel"])
@pytest.mark.parametrize("seed", [0, 1, 2004])
def test_figure2_families_match(family, seed):
    got = figure2_workload(150, 100, family=family, random_state=seed)
    config = WorkloadConfig(
        runtime_range=(1.0, 50.0),
        weight_scheme="work",
        sequential_fraction=1.0 if family == "non_parallel" else 0.0,
        max_procs=100,
    )
    want = reference_moldable_jobs(
        150, 100, config=config, random_state=seed, name_prefix=family
    )
    _assert_same_jobs(got, want)


def test_zero_jobs():
    assert generate_moldable_jobs(0, 8, random_state=3) == []
    assert figure2_workload(0, 100, random_state=3) == []


def test_single_machine_caps_profiles_at_one_processor():
    # cap 1: the drawn models still divide the sequential time by speedup(1).
    got = generate_moldable_jobs(40, 1, random_state=5)
    want = reference_moldable_jobs(40, 1, random_state=5)
    _assert_same_jobs(got, want)
    assert all(job.max_procs == 1 for job in got)


def test_extreme_parameter_ranges():
    config = WorkloadConfig(serial_fraction_range=(0.0, 1.0), power_alpha_range=(0.0, 1.0))
    got = generate_moldable_jobs(120, 33, config=config, random_state=8)
    _assert_same_jobs(got, reference_moldable_jobs(120, 33, config=config, random_state=8))


def _unchecked(cls, **fields):
    """A speedup model outside its documented range (validation bypassed)."""

    model = object.__new__(cls)
    for key, value in fields.items():
        object.__setattr__(model, key, value)
    return model


def test_non_monotone_rows_are_repaired_row_by_row():
    # f > 1 and alpha < 0 make the runtime grow with k, so those rows (and
    # only those) go through the running-minimum repair.
    rows = [
        (7.0, models._AMDAHL, 0.1, 5),
        (3.0, models._AMDAHL, 1.5, 6),
        (2.5, models._SEQUENTIAL, 0.0, 1),
        (9.0, models._POWER, -0.3, 4),
        (4.0, models._POWER, 0.8, 7),
        (1.0, models._AMDAHL, 2.0, 1),
    ]
    seqs, kinds, params, lengths = (np.array(col) for col in zip(*rows))
    data, ptr = models._moldable_profiles(
        seqs.astype(float), kinds.astype(np.int8), params.astype(float), lengths.astype(np.int64)
    )
    assert ptr.tolist() == [0, 5, 11, 12, 16, 23, 24]
    for i, (seq, kind, param, length) in enumerate(rows):
        if kind == models._SEQUENTIAL:
            want = np.array([seq])
        elif kind == models._AMDAHL:
            want = runtime_profile_array(seq, length, _unchecked(AmdahlSpeedup, serial_fraction=param))
        else:
            want = runtime_profile_array(seq, length, _unchecked(PowerLawSpeedup, alpha=param))
        assert data[ptr[i] : ptr[i + 1]].tolist() == want.tolist()
    # The repaired rows are flat: every runtime equals the sequential one.
    assert data[ptr[1] : ptr[2]].tolist() == [3.0] * 6
    assert data[ptr[3] : ptr[4]].tolist() == [9.0] * 4
