"""Named, individually tested analytics queries over a campaign store.

Each query is a pure-python function over :meth:`CampaignStore.records`
output that reads the result row through its ``row_json`` column, so it
works on every landed part whatever extra columns an older writer added.
The numbers match :class:`~repro.metrics.aggregate.StreamingAggregator`.
:func:`run_query` returns a list of plain dict rows, so CLI export and tests
treat every query alike.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.metrics.aggregate import summarize
from repro.store.columnar import CampaignStore


class QueryError(ValueError):
    """Unknown query, unknown engine or missing/unknown parameter."""


def _scoped(params: Mapping[str, Any]) -> Dict[str, Any]:
    return {k: params.get(k) for k in ("campaign", "scenario") if params.get(k) is not None}


def _match(record: Mapping[str, Any], filters: Mapping[str, Any]) -> bool:
    return all(record.get(k) == v for k, v in filters.items())


def _numeric(value: Any) -> Optional[float]:
    """The numeric view of a row value: bools as 0/1, else float() or None."""

    if value is None or isinstance(value, bool):
        return 1.0 if value is True else (0.0 if value is False else None)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


@dataclass(frozen=True)
class Query:
    """One named analytics query over the store's records."""

    name: str
    description: str
    required: Tuple[str, ...]
    optional: Tuple[str, ...]
    runner: Callable[[List[Dict[str, Any]], Dict[str, Any]], List[Dict[str, Any]]]

    def check_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        missing = [name for name in self.required if params.get(name) in (None, "")]
        if missing:
            raise QueryError(
                f"query {self.name!r} needs parameter(s) {missing} "
                f"(pass --param name=value)"
            )
        unknown = sorted(set(params) - set(self.required) - set(self.optional))
        if unknown:
            raise QueryError(
                f"query {self.name!r} does not take parameter(s) {unknown}; "
                f"accepted: {sorted(self.required + self.optional)}"
            )
        return dict(params)


# ---------------------------------------------------------------------------
# rows: the exact result rows (bit-identical re-export channel)
# ---------------------------------------------------------------------------


def _rows(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    scoped = _scoped(params)
    return [
        json.loads(record["row_json"])
        for record in records
        if _match(record, scoped)
    ]


# ---------------------------------------------------------------------------
# metric-summary: StreamingAggregator-equivalent per-scenario statistics
# ---------------------------------------------------------------------------


def _metric_summary(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    metric = params["metric"]
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if not _match(record, scoped):
            continue
        value = _numeric(json.loads(record["row_json"]).get(metric))
        if value is None:
            continue
        groups.setdefault((record["campaign"], record["scenario"]), []).append(value)
    out = []
    for (campaign, scenario), values in sorted(groups.items()):
        summary = summarize(metric, values).as_dict()
        out.append({"campaign": campaign, "scenario": scenario, **summary})
    return out


# ---------------------------------------------------------------------------
# policy-compare: X vs Y across every scenario and seed
# ---------------------------------------------------------------------------


def _policy_compare(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    metric = params["metric"]
    axis = params.get("axis") or "policy_name"
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str, Any, Any], List[float]] = {}
    for record in records:
        if not _match(record, scoped):
            continue
        row = json.loads(record["row_json"])
        value = _numeric(row.get(metric))
        axis_value = row.get(axis)
        if value is None or axis_value is None:
            continue
        slot = (record["campaign"], record["scenario"], record.get("seed"), axis_value)
        groups.setdefault(slot, []).append(value)
    out = []
    for (campaign, scenario, seed, axis_value), values in sorted(
        groups.items(), key=lambda item: (item[0][0], item[0][1], item[0][2], str(item[0][3]))
    ):
        out.append({
            "campaign": campaign, "scenario": scenario, "seed": seed,
            "axis_value": axis_value, "count": len(values),
            "mean": sum(values) / len(values),
        })
    return out


# ---------------------------------------------------------------------------
# compare: the same cells across two campaigns, value against value
# ---------------------------------------------------------------------------


def _compare(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    metric = params["metric"]
    scenario = params.get("scenario")
    b_side = {
        (r["scenario"], r["key"]): r
        for r in records
        if r["campaign"] == params["campaign_b"]
    }
    out = []
    for record in records:
        if record["campaign"] != params["campaign_a"]:
            continue
        if scenario is not None and record["scenario"] != scenario:
            continue
        other = b_side.get((record["scenario"], record["key"]))
        if other is None:
            continue
        a_value = _numeric(json.loads(record["row_json"]).get(metric))
        b_value = _numeric(json.loads(other["row_json"]).get(metric))
        out.append({
            "scenario": record["scenario"],
            "row_index": record["row_index"],
            "seed": record.get("seed"),
            "a_value": a_value,
            "b_value": b_value,
            "equal": (a_value == b_value) if (a_value is not None and b_value is not None) else None,
            "diff": (b_value - a_value) if (a_value is not None and b_value is not None) else None,
        })
    out.sort(key=lambda r: (r["scenario"], r["row_index"]))
    return out


# ---------------------------------------------------------------------------
# cell-timing: per-cell wall-clock percentiles
# ---------------------------------------------------------------------------


def _cell_timing(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str], List[Dict[str, Any]]] = {}
    for record in records:
        if _match(record, scoped):
            groups.setdefault((record["campaign"], record["scenario"]), []).append(record)
    out = []
    for (campaign, scenario), members in sorted(groups.items()):
        elapsed = [float(r.get("elapsed_seconds") or 0.0) for r in members]
        summary = summarize("elapsed_seconds", elapsed)
        out.append({
            "campaign": campaign, "scenario": scenario, "cells": len(members),
            "total_seconds": sum(elapsed), "mean_seconds": summary.mean,
            "p50_seconds": summary.median, "p90_seconds": summary.p90,
            "max_seconds": summary.maximum,
            "replayed": sum(1 for r in members if r.get("replayed")),
        })
    return out


# ---------------------------------------------------------------------------
# cache-accounting: replayed vs computed cells, dedup coverage
# ---------------------------------------------------------------------------


def _cache_accounting(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str, str], List[Dict[str, Any]]] = {}
    for record in records:
        if _match(record, scoped):
            slot = (record["campaign"], record["scenario"], record.get("fingerprint") or "")
            groups.setdefault(slot, []).append(record)
    out = []
    for (campaign, scenario, fingerprint), members in sorted(groups.items()):
        replayed = sum(1 for r in members if r.get("replayed"))
        out.append({
            "campaign": campaign, "scenario": scenario, "fingerprint": fingerprint,
            "rows": len(members), "replayed": replayed,
            "computed": len(members) - replayed,
            "distinct_keys": len({r["key"] for r in members}),
        })
    return out


# ---------------------------------------------------------------------------
# telemetry: span-summary / worker-occupancy / phase-attribution over
# flight-recorder rows (repro.telemetry.TelemetryRecorder).  Span fields are
# read through row_json, like every other row field.
# ---------------------------------------------------------------------------


def _span_body(record: Mapping[str, Any]) -> Optional[Dict[str, Any]]:
    """The decoded payload of a span row, or None for anything else."""

    try:
        body = json.loads(record["row_json"])
    except (KeyError, TypeError, ValueError):
        return None
    if not isinstance(body, dict) or body.get("kind") != "span":
        return None
    if _numeric(body.get("seconds")) is None:
        return None
    return body


def _span_summary(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str, str], List[float]] = {}
    for record in records:
        if not _match(record, scoped):
            continue
        body = _span_body(record)
        if body is None:
            continue
        slot = (record["campaign"], record["scenario"], str(body.get("name")))
        groups.setdefault(slot, []).append(float(body["seconds"]))
    out = []
    for (campaign, scenario, name), seconds in sorted(groups.items()):
        out.append({
            "campaign": campaign, "scenario": scenario, "name": name,
            "spans": len(seconds), "total_seconds": sum(seconds),
            "mean_seconds": sum(seconds) / len(seconds),
            "min_seconds": min(seconds), "max_seconds": max(seconds),
        })
    return out


def _worker_occupancy(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str], Dict[str, float]] = {}
    for record in records:
        if not _match(record, scoped):
            continue
        body = _span_body(record)
        if body is None or body.get("worker") is None:
            continue
        slot = (record["campaign"], str(body["worker"]))
        sums = groups.setdefault(
            slot, {"busy": 0.0, "idle": 0.0, "overhead": 0.0, "cells": 0}
        )
        name, seconds = body.get("name"), float(body["seconds"])
        if name == "cell.execute":
            sums["busy"] += seconds
            sums["cells"] += 1
        elif name == "worker.idle":
            sums["idle"] += seconds
        elif name in ("cell.deserialize", "cell.serialize"):
            sums["overhead"] += seconds
    out = []
    for (campaign, worker), sums in sorted(groups.items()):
        total = sums["busy"] + sums["idle"] + sums["overhead"]
        out.append({
            "campaign": campaign, "worker": worker,
            "busy_seconds": sums["busy"], "idle_seconds": sums["idle"],
            "overhead_seconds": sums["overhead"], "cells": int(sums["cells"]),
            "occupancy": sums["busy"] / total if total > 0 else 0.0,
        })
    return out


def _phase_attribution(records: List[Dict[str, Any]], params: Dict[str, Any]) -> List[Dict[str, Any]]:
    scoped = _scoped(params)
    groups: Dict[Tuple[str, str], List[float]] = {}
    for record in records:
        if not _match(record, scoped):
            continue
        body = _span_body(record)
        if body is None:
            continue
        slot = (record["campaign"], str(body.get("name")))
        groups.setdefault(slot, []).append(float(body["seconds"]))
    campaign_totals: Dict[str, float] = {}
    for (campaign, _phase), seconds in groups.items():
        campaign_totals[campaign] = campaign_totals.get(campaign, 0.0) + sum(seconds)
    out = []
    for (campaign, phase), seconds in sorted(groups.items()):
        total = sum(seconds)
        campaign_total = campaign_totals[campaign]
        out.append({
            "campaign": campaign, "phase": phase, "spans": len(seconds),
            "total_seconds": total, "mean_seconds": total / len(seconds),
            "share": total / campaign_total if campaign_total > 0 else 0.0,
        })
    return out


QUERIES: Dict[str, Query] = {
    query.name: query
    for query in (
        Query(
            name="rows",
            description="the exact result rows, in append order (re-export channel)",
            required=(), optional=("campaign", "scenario"), runner=_rows,
        ),
        Query(
            name="metric-summary",
            description="per-campaign/scenario summary statistics of one metric "
                        "(matches StreamingAggregator)",
            required=("metric",), optional=("campaign", "scenario"), runner=_metric_summary,
        ),
        Query(
            name="policy-compare",
            description="mean metric per (campaign, scenario, seed, axis value): "
                        "policy X vs Y across every scenario and seed",
            required=("metric",), optional=("axis", "campaign", "scenario"), runner=_policy_compare,
        ),
        Query(
            name="compare",
            description="join the same cells across two campaigns and diff one metric",
            required=("metric", "campaign_a", "campaign_b"), optional=("scenario",), runner=_compare,
        ),
        Query(
            name="cell-timing",
            description="per-cell wall-clock percentiles per campaign/scenario",
            required=(), optional=("campaign", "scenario"), runner=_cell_timing,
        ),
        Query(
            name="cache-accounting",
            description="replayed vs computed cells and dedup coverage per partition",
            required=(), optional=("campaign", "scenario"), runner=_cache_accounting,
        ),
        Query(
            name="span-summary",
            description="per-span-name timing statistics over recorded telemetry "
                        "(flight-recorder partitions)",
            required=(), optional=("campaign", "scenario"), runner=_span_summary,
        ),
        Query(
            name="worker-occupancy",
            description="busy vs idle vs serialization seconds per worker, from "
                        "forwarded worker spans",
            required=(), optional=("campaign", "scenario"), runner=_worker_occupancy,
        ),
        Query(
            name="phase-attribution",
            description="where the milliseconds go: total/mean seconds and share "
                        "per span name (phase) per campaign",
            required=(), optional=("campaign", "scenario"), runner=_phase_attribution,
        ),
    )
}


def get_query(name: str) -> Query:
    query = QUERIES.get(name)
    if query is None:
        raise QueryError(f"unknown query {name!r}; known: {sorted(QUERIES)}")
    return query


def run_query(
    store: CampaignStore,
    name: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    engine: str = "py",
) -> List[Dict[str, Any]]:
    """Run a named query and return plain dict rows.

    ``engine`` only accepts ``"py"``, the one query engine; any other value
    raises :class:`QueryError`.
    """

    if engine != "py":
        raise QueryError(f"unknown engine {engine!r}; the only query engine is 'py'")
    query = get_query(name)
    return query.runner(store.records(), query.check_params(params or {}))
