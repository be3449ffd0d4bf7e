"""An independent checker of event-runtime simulations.

:func:`trace_violations` replays the flat trace records of a
:class:`~repro.runtime.record.SimulationRecord` (``Trace.to_records()``)
from scratch -- its own processor table, its own run and queue state -- and
lists every rule of a legal run the trace breaks.  It reads nothing of the
runtime but the record, so a change to the runtime's hot path is checked by
what it produced, not by how it produced it:

* per cluster, no processor is held by two runs at once, local and
  best-effort runs alike, and every processor exists on its cluster;
* every ``start`` closes with exactly one ``complete`` or ``kill``, and
  nothing is running, queued or in transit at the horizon;
* only best-effort runs are killed, and a ``kill`` is directly followed by
  the ``resubmit`` of the same run at the same time;
* a local job starts only after its ``submit`` on that cluster, and a
  ``migrate`` moves only a queued job that has not started;
* the record agrees with the replay: ``launches``, ``kills``, the trace
  length, the per-cluster schedules, ``runs_completed``, the migrations,
  the flows, the utilizations and the criteria.

The result is a list of messages (empty for a legal run), in the spirit of
the ``warnings`` list a Gantt scheduler returns beside its tasks.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

BEST_EFFORT = "best-effort"

#: Criteria recomputed from the trace and compared with ``record.criteria``.
CRITERIA = (
    "n_jobs", "makespan", "sum_completion", "mean_completion",
    "weighted_completion", "mean_stretch", "max_stretch", "throughput",
    "total_work", "utilization",
)


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


def _criteria(machine_count: int, rows: List[Tuple[Any, float, float, int]]) -> Dict[str, float]:
    """Criteria of (job, start, end, nbproc) rows, written from their definitions."""

    n = len(rows)
    ends = [end for _job, _start, end, _nbproc in rows]
    flows = [end - job.release_date for job, _start, end, _nbproc in rows]
    work = sum((end - start) * nbproc for _job, start, end, nbproc in rows)
    makespan = max(ends, default=0.0)
    return {
        "n_jobs": n,
        "makespan": makespan,
        "sum_completion": sum(ends),
        "mean_completion": sum(ends) / n if n else 0.0,
        "weighted_completion": sum(job.weight * end for job, _s, end, _p in rows),
        "mean_stretch": sum(flows) / n if n else 0.0,
        "max_stretch": max(flows, default=0.0),
        "throughput": n / makespan if makespan > 0 else 0.0,
        "total_work": work,
        "utilization": work / (machine_count * makespan) if makespan > 0 else 0.0,
    }


def trace_violations(record: Any, records: Optional[Sequence[Dict[str, Any]]] = None) -> List[str]:
    """Every rule of a legal run that ``records`` breaks (empty if none).

    ``records`` defaults to ``record.trace.to_records()``; pass an edited
    copy to check the checker.
    """

    if records is None:
        records = record.trace.to_records()
    out: List[str] = []
    schedules = record.schedules

    def schedule_key(cluster: Optional[str]) -> Optional[str]:
        # A single-cluster run may tag its events with no (or another) name.
        if cluster in schedules:
            return cluster
        if len(schedules) == 1:
            return next(iter(schedules))
        return None

    jobs = {
        key: {job.name: job for job in schedule.columns.jobs}
        for key, schedule in schedules.items()
    }
    holders: Dict[Optional[str], Dict[int, str]] = {}
    running: Dict[Tuple[str, Optional[str]], Tuple[float, Tuple[int, ...], bool]] = {}
    # Local jobs are keyed by (name, cluster): names are unique per cluster.
    submitted: Dict[Tuple[str, Optional[str]], float] = {}
    queued: set = set()
    in_transit: Dict[Tuple[str, Optional[str]], float] = {}
    #: cluster -> (name, start, end, processors, first submit) of its local jobs.
    local_rows: Dict[Optional[str], List[Tuple[str, float, float, Tuple[int, ...], Optional[float]]]] = {}
    be_work: Dict[str, float] = {}
    completed_runs: Dict[str, int] = {}
    last_run_end: Dict[str, float] = {}
    flows: Dict[str, float] = {}
    migrated: List[str] = []
    launches = kills = 0
    last_time = 0.0

    for index, event in enumerate(records):
        time, kind, job = event["time"], event["kind"], event["job"]
        cluster, info = event["cluster"], event["info"]
        processors = tuple(event["processors"])
        where = f"#{index} t={time} {kind} {job!r} on {cluster!r}"
        if time < last_time:
            out.append(f"{where}: time runs backwards (previous event at {last_time})")
        last_time = max(last_time, time)
        key = (job, cluster)
        if kind == "submit":
            if info == "migrated":
                # A queued job may move on again, back to a cluster it left.
                released = in_transit.pop(key, None)
                if released is None:
                    out.append(f"{where}: migrated submit of a job not in transit")
                submitted[key] = time if released is None else released
            else:
                if key in submitted:
                    out.append(f"{where}: job submitted twice")
                submitted[key] = time
            queued.add(key)
        elif kind == "migrate":
            if key not in queued:
                out.append(f"{where}: migrate of a job not queued on that cluster")
            queued.discard(key)
            target = info[3:] if info.startswith("-> ") else None
            in_transit[(job, target)] = submitted.get(key, time)
            migrated.append(job)
        elif kind == "start":
            best_effort = info == BEST_EFFORT
            if key in running:
                out.append(f"{where}: started while already running")
            if best_effort:
                launches += 1
            elif key not in queued:
                out.append(f"{where}: start of a job not queued on that cluster")
            elif time < submitted[key]:
                out.append(f"{where}: starts before its submit at {submitted[key]}")
            queued.discard(key)
            if not processors:
                out.append(f"{where}: start with no processors")
            skey = schedule_key(cluster)
            machine_count = schedules[skey].machine_count if skey is not None else 0
            table = holders.setdefault(cluster, {})
            for p in processors:
                if not 0 <= p < machine_count:
                    out.append(f"{where}: processor {p} is not on the cluster")
                if p in table:
                    out.append(f"{where}: processor {p} already held by {table[p]!r}")
                table[p] = job
            running[key] = (time, processors, best_effort)
        elif kind in ("complete", "kill"):
            started = running.pop(key, None)
            if started is None:
                out.append(f"{where}: no matching start")
                continue
            start, held, best_effort = started
            if kind == "complete" and best_effort != (info == BEST_EFFORT):
                out.append(f"{where}: closes a run of the other kind")
            if processors and processors != held:
                out.append(f"{where}: names processors {processors}, run held {held}")
            table = holders.get(cluster, {})
            for p in held:
                if table.get(p) == job:
                    del table[p]
            if kind == "kill":
                kills += 1
                if not best_effort:
                    out.append(f"{where}: a local job was killed")
                following = records[index + 1] if index + 1 < len(records) else None
                if following is None or (
                    following["kind"], following["job"], following["cluster"], following["time"]
                ) != ("resubmit", job, cluster, time):
                    out.append(f"{where}: kill not followed by its resubmit")
            elif best_effort:
                bag = job.rsplit("#", 1)[0]
                completed_runs[bag] = completed_runs.get(bag, 0) + 1
                last_run_end[bag] = time
                be_work[cluster] = be_work.get(cluster, 0.0) + (time - start)
            else:
                released = submitted.get(key)
                local_rows.setdefault(cluster, []).append((job, start, time, held, released))
                if released is not None:
                    flows[job] = time - released
        elif kind == "resubmit":
            previous = records[index - 1] if index else None
            if previous is None or (
                previous["kind"], previous["job"], previous["cluster"], previous["time"]
            ) != ("kill", job, cluster, time):
                out.append(f"{where}: resubmit not directly after its kill")

    for (job, cluster), (start, _held, _be) in running.items():
        out.append(f"{job!r} on {cluster!r}, started at {start}, still running at the end")
    for job, cluster in queued:
        out.append(f"{job!r} still queued on {cluster!r} at the end")
    for job, target in in_transit:
        out.append(f"{job!r} still in transit to {target!r} at the end")
    if last_time > record.horizon and not _close(last_time, record.horizon):
        out.append(f"last event at {last_time} after the horizon {record.horizon}")

    # -- the record against the replay --------------------------------------
    if len(records) != len(record.trace):
        out.append(f"trace_events: record has {len(record.trace)}, replayed {len(records)}")
    if record.launches != launches:
        out.append(f"launches: record {record.launches}, trace {launches}")
    if record.kills != kills:
        out.append(f"kills: record {record.kills}, trace {kills}")
    if record.migrations != len(migrated) or list(record.migrated_jobs) != migrated:
        out.append(f"migrations: record {record.migrated_jobs}, trace {migrated}")
    runs_completed = {bag: n for bag, n in record.runs_completed.items() if n}
    if runs_completed != completed_runs:
        out.append(f"runs_completed: record {runs_completed}, trace {completed_runs}")
    for bag, done_at in record.bag_completion.items():
        if done_at is not None and not _close(done_at, last_run_end.get(bag, math.nan)):
            out.append(f"bag {bag!r} completion: record {done_at}, last run ended "
                       f"{last_run_end.get(bag)}")
    for job, flow in record.flows.items():
        if not _close(flow, flows.get(job, math.nan)):
            out.append(f"flow of {job!r}: record {flow}, trace {flows.get(job)}")

    criteria = record.cluster_criteria
    for cluster in {*local_rows, *holders}:
        skey = schedule_key(cluster)
        if skey is None:
            out.append(f"events on {cluster!r}, which has no schedule")
    for skey, schedule in schedules.items():
        clusters = [c for c in {*local_rows, *holders} if schedule_key(c) == skey]
        rows = [row for c in clusters for row in local_rows.get(c, [])]
        entries = {e.job.name: e for e in schedule}
        if sorted(entries) != sorted(name for name, *_ in rows):
            out.append(f"schedule {skey!r} lists {sorted(entries)}, trace ran "
                       f"{sorted(name for name, *_ in rows)}")
        criteria_rows = []
        for name, start, end, held, released in rows:
            entry = entries.get(name)
            if entry is not None and (
                not _close(entry.start, start) or not _close(entry.completion, end)
                or tuple(entry.processors) != held
            ):
                out.append(f"schedule {skey!r} places {name!r} at "
                           f"[{entry.start}, {entry.completion}) on {entry.processors}, "
                           f"trace at [{start}, {end}) on {held}")
            job = jobs[skey].get(name)
            if job is not None:
                if released is not None and not _close(job.release_date, released):
                    out.append(f"{name!r} released at {job.release_date}, first "
                               f"submitted at {released}")
                criteria_rows.append((job, start, end, len(held)))
        want = _criteria(schedule.machine_count, criteria_rows)
        got = criteria[skey].as_dict()
        for name in CRITERIA:
            if not _close(got[name], want[name]):
                out.append(f"criteria {skey!r}.{name}: record {got[name]}, trace {want[name]}")
        if skey in record.utilization:
            work = sum((end - start) * len(held) for _n, start, end, held, _r in rows)
            work += sum(be_work.get(c, 0.0) for c in clusters)
            denom = schedule.machine_count * record.horizon
            want_util = work / denom if denom > 0 else 0.0
            if not _close(record.utilization[skey], want_util):
                out.append(f"utilization {skey!r}: record {record.utilization[skey]}, "
                           f"trace {want_util}")
    return out
