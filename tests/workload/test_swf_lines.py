"""Malformed SWF data lines fail at the boundary, never deep in the runtime.

A data line whose submit time, run time or processor count is not a finite
number is malformed: :func:`swf_to_jobs` skips it by default and raises a
``ValueError`` naming the line under ``strict=True``.  Every job it does
return passes :func:`validate_jobs` with finite fields.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import validate_jobs
from repro.workload.swf import swf_to_jobs

MALFORMED = [
    "1 0 0 10 inf",     # int(inf) overflows
    "1 0 0 10 1e400",   # parses as inf
    "1 0 0 10 -inf",
    "1 0 0 10 nan",
    "1 0 0 nan 4",
    "1 0 0 inf 4",
    "1 0 0 1e400 4",
    "1 nan 0 10 4",
    "1 inf 0 10 4",
    "1 -inf 0 10 4",
    "1 1e400 0 10 4",
]


@pytest.mark.parametrize("line", MALFORMED)
def test_non_finite_fields_are_skipped_by_default(line):
    text = f"0 0 0 5 2\n{line}\n"
    assert [job.name for job in swf_to_jobs(text)] == ["job-0"]


@pytest.mark.parametrize("line", MALFORMED)
def test_non_finite_fields_raise_under_strict(line):
    with pytest.raises(ValueError, match="SWF line 2"):
        swf_to_jobs(f"0 0 0 5 2\n{line}\n", strict=True)


def test_strict_error_names_the_physical_line():
    # Comments and blank lines count: the message points into the file.
    text = "; header\n0 0 0 5 2\n\n1 0 0 nan 4\n"
    with pytest.raises(ValueError, match="SWF line 4: .*'1 0 0 nan 4'"):
        swf_to_jobs(text, strict=True)
    assert [job.name for job in swf_to_jobs(text)] == ["job-0"]


def test_non_finite_weight_falls_back_to_one():
    (job,) = swf_to_jobs("1 0 0 10 4 -1 -1 -1 -1 -1 -1 inf\n")
    assert job.weight == 1.0


_SPECIAL = st.sampled_from(["nan", "-nan", "inf", "-inf", "Infinity", "1e400", "-1e400",
                            "-1", "0", "1e308"])
_NUMBER = st.one_of(
    st.integers(min_value=-1, max_value=10**6).map(str),
    st.floats(min_value=0.001, max_value=1e6).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    _SPECIAL,
)
_TOKEN = st.one_of(
    _NUMBER,
    st.integers(min_value=-5, max_value=10**30).map(str),
    st.sampled_from(["0x10", "abc", ";", "#"]),
    st.text(alphabet="0123456789.-+eE", min_size=1, max_size=8),
)
#: Free-form token lists, plus numeric records of SWF length so that a good
#: share of the generated lines parse into a job.
_LINES = st.one_of(
    st.lists(_TOKEN, max_size=20),
    st.lists(_NUMBER, min_size=5, max_size=18),
).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(line=_LINES)
def test_generated_line_raises_its_error_or_yields_valid_jobs(line):
    jobs = swf_to_jobs(line)
    validate_jobs(jobs)
    for job in jobs:
        assert math.isfinite(job.release_date) and job.release_date >= 0
        assert math.isfinite(job.duration) and job.duration > 0
        assert math.isfinite(job.weight) and job.weight > 0
        assert job.nbproc >= 1
    try:
        strict = swf_to_jobs(line, strict=True)
    except ValueError as error:
        assert "SWF line 1" in str(error)
        assert not jobs
    else:
        assert [_fields(job) for job in strict] == [_fields(job) for job in jobs]


def _fields(job):
    return (job.name, job.release_date, job.nbproc, job.duration, job.weight, job.owner)
