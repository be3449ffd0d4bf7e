"""Minimal Standard Workload Format (SWF) support.

The Standard Workload Format is the de-facto interchange format of the
parallel workload archive: one line per job with 18 whitespace-separated
fields.  Only the fields relevant to this library are interpreted:

==  ==========================  ======================================
#   SWF field                   mapping
==  ==========================  ======================================
1   job number                  job name (``job-<number>``)
2   submit time                 ``release_date``
4   run time                    runtime of the allocated processor count
5   number of allocated procs   ``nbproc`` (rigid view)
11  requested memory            ignored
12  requested time              ignored (clairvoyant runtimes are used)
15  user id                     ``owner``
==  ==========================  ======================================

Export writes rigid jobs (moldable jobs are exported with their minimal
allocation); import produces :class:`repro.core.job.RigidJob` objects.  This
is enough to replay external traces through the policies and to dump
generated workloads for inspection with external tools.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, TextIO, Union

from repro.core.job import Job, MoldableJob, RigidJob

SWF_FIELDS = 18

#: Header fields of the SWF specification that are interpreted numerically
#: when present (``; MaxJobs: 1000`` style comment lines).  Everything else
#: is kept verbatim in :attr:`SWFHeader.extra`.
_NUMERIC_HEADER_FIELDS = (
    "Version",
    "MaxJobs",
    "MaxRecords",
    "MaxNodes",
    "MaxProcs",
    "UnixStartTime",
    "TimeZone",
    "MaxRuntime",
    "MaxMemory",
    "MaxQueues",
    "MaxPartitions",
)


@dataclass
class SWFHeader:
    """Metadata parsed from the ``;`` comment header of an SWF trace.

    Real archive files carry a ``; Key: Value`` header block, but traces in
    the wild are frequently truncated or carry non-standard fields; parsing
    is therefore *tolerant*: missing fields stay ``None`` / absent, unknown
    fields land in :attr:`extra`, and malformed comment lines are counted in
    :attr:`malformed_lines` instead of raising.
    """

    computer: Optional[str] = None
    version: Optional[float] = None
    max_jobs: Optional[int] = None
    max_nodes: Optional[int] = None
    max_procs: Optional[int] = None
    unix_start_time: Optional[int] = None
    #: Every ``Key: Value`` pair of the header, verbatim (including the ones
    #: mapped to the typed attributes above).
    fields: Dict[str, str] = field(default_factory=dict)
    #: Non-standard fields (anything not in the SWF field list).
    extra: Dict[str, str] = field(default_factory=dict)
    #: Comment lines that did not parse as ``Key: Value`` (truncated headers).
    malformed_lines: int = 0

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        return self.fields.get(name, default)


def parse_swf_header(text: Union[str, TextIO]) -> SWFHeader:
    """Parse the comment header of an SWF trace, tolerantly.

    Accepts the whole trace text (data lines are ignored); never raises on
    missing, extra, duplicated or truncated header fields.
    """

    if hasattr(text, "read"):
        text = text.read()  # type: ignore[union-attr]
    assert isinstance(text, str)
    header = SWFHeader()
    known = set(_NUMERIC_HEADER_FIELDS) | {
        "Computer", "Installation", "Acknowledge", "Information", "Conversion",
        "StartTime", "EndTime", "Note", "Queues", "Queue", "Partitions",
        "Partition", "Preemption", "AllowOveruse",
    }
    for raw in text.splitlines():
        line = raw.strip()
        if not line.startswith(";"):
            continue
        body = line.lstrip(";").strip()
        if not body:
            continue
        key, sep, value = body.partition(":")
        key = key.strip()
        value = value.strip()
        # A header field is a single capitalised word followed by ':'.  Free
        # text comments (or lines truncated mid-key) are tolerated silently;
        # a key without any value counts as malformed but still not fatal.
        if not sep or not key or " " in key:
            header.malformed_lines += 1
            continue
        header.fields.setdefault(key, value)
        if key not in known:
            header.extra.setdefault(key, value)
        if key == "Computer":
            header.computer = header.computer or value
        elif key in _NUMERIC_HEADER_FIELDS:
            try:
                number = float(value.split()[0]) if value else None
            except ValueError:
                header.malformed_lines += 1
                continue
            if number is None:
                header.malformed_lines += 1
            elif key == "Version":
                header.version = header.version or number
            elif key == "MaxJobs":
                header.max_jobs = header.max_jobs or int(number)
            elif key == "MaxNodes":
                header.max_nodes = header.max_nodes or int(number)
            elif key == "MaxProcs":
                header.max_procs = header.max_procs or int(number)
            elif key == "UnixStartTime":
                header.unix_start_time = (
                    header.unix_start_time
                    if header.unix_start_time is not None
                    else int(number)
                )
    return header


def jobs_to_swf(jobs: Sequence[Job], *, comment: str = "") -> str:
    """Serialise jobs to SWF text (one line per job, 18 fields)."""

    lines: List[str] = []
    if comment:
        for row in comment.splitlines():
            lines.append(f"; {row}")
    for index, job in enumerate(sorted(jobs, key=lambda j: (j.release_date, j.name)), start=1):
        if isinstance(job, RigidJob):
            nbproc, runtime = job.nbproc, job.duration
        elif isinstance(job, MoldableJob):
            nbproc = job.min_procs
            runtime = job.runtime(nbproc)
        else:
            raise TypeError(f"cannot export job of type {type(job)!r} to SWF")
        fields = [-1] * SWF_FIELDS
        fields[0] = index
        fields[1] = job.release_date
        fields[2] = 0            # wait time (unknown before scheduling)
        fields[3] = runtime
        fields[4] = nbproc
        fields[7] = nbproc       # requested processors
        fields[8] = runtime      # requested time (clairvoyant)
        fields[11] = job.weight
        fields[14] = job.owner or -1
        line = " ".join(
            f"{f:.4f}" if isinstance(f, float) else str(f) for f in fields
        )
        lines.append(line)
    return "\n".join(lines) + "\n"


def swf_to_jobs(text: Union[str, TextIO], *, strict: bool = False) -> List[RigidJob]:
    """Parse SWF text into rigid jobs.

    Comment lines (``;`` / ``#``) are skipped -- use :func:`parse_swf_header`
    to interpret them.  Archive traces are frequently truncated mid-file or
    carry header lines that lost their comment marker, so by default
    malformed data lines (too few fields; a non-numeric, NaN, infinite or
    overflowing submit time, run time or processor count) are skipped
    instead of raising; pass ``strict=True`` to turn them into a
    :class:`ValueError` naming the line.  Jobs with a non-positive run time
    or processor count (the archive writes ``-1`` for unknown) are skipped
    in both modes.
    """

    if hasattr(text, "read"):
        text = text.read()  # type: ignore[union-attr]
    assert isinstance(text, str)
    jobs: List[RigidJob] = []
    for line_number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(";") or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) < 5:
            if strict:
                raise ValueError(
                    f"SWF line {line_number}: expected at least 5 fields, got {len(parts)}"
                )
            continue
        job_id = parts[0]
        try:
            submit = float(parts[1])
            runtime = float(parts[3])
            # int() raises ValueError on NaN and OverflowError on inf.
            nbproc = int(float(parts[4]))
            if not (math.isfinite(submit) and math.isfinite(runtime)):
                raise ValueError
        except (ValueError, OverflowError):
            if strict:
                raise ValueError(
                    f"SWF line {line_number}: non-numeric or non-finite job fields: {line!r}"
                ) from None
            continue
        if runtime <= 0 or nbproc <= 0:
            # The archive uses -1 for unknown values; such jobs are skipped.
            continue
        weight = 1.0
        if len(parts) > 11:
            try:
                candidate = float(parts[11])
                if 0 < candidate < math.inf:
                    weight = candidate
            except ValueError:
                pass
        owner: Optional[str] = None
        if len(parts) > 14 and parts[14] not in ("-1", ""):
            owner = parts[14]
        jobs.append(
            RigidJob(
                name=f"job-{job_id}",
                release_date=max(0.0, submit),
                nbproc=nbproc,
                duration=runtime,
                weight=weight,
                owner=owner,
            )
        )
    return jobs
