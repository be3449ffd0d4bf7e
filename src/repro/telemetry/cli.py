"""Command-line interface of the telemetry flight recorder: replay and check.

::

    python -m repro.scenarios run fig2.bicriteria --smoke --record runs/flight
    python -m repro.scenarios run --all --smoke --record runs/flight \
        --executor inproc:// --workers 4           # distributed, forwarded spans
    python -m repro.telemetry replay --store runs/flight --topic worker. --limit 20
    python -m repro.store query phase-attribution --store runs/flight
    python -m repro.store query worker-occupancy --store runs/flight
    python -m repro.telemetry smoke                # CI: fleet + recorder + parity

Recording is a flag of the scenario runner: ``repro.scenarios run|sweep
--record DIR`` attaches a :class:`~repro.telemetry.recorder.
TelemetryRecorder` to the process bus, so every event -- sweep lifecycle,
scheduler decisions, forwarded ``worker.*`` spans -- lands in
``telemetry.<campaign>`` partitions of that store.  ``replay`` prints
recorded events back in landed order; the telemetry queries
(``span-summary``, ``worker-occupancy``, ``phase-attribution``) run through
``python -m repro.store query`` like every other store query.

Recording is observation only: scenario digests are bit-identical with the
recorder on or off (``smoke`` proves exactly that against a 4-worker
``tcp://`` fleet).

Exit codes: 0 on success, 1 when a smoke assertion fails, 2 on usage
errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.store.queries import run_query
from repro.telemetry.recorder import TELEMETRY_SCENARIO_PREFIX, TelemetryRecorder


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry",
        description="Flight recorder: replay recorded events, smoke-check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rep = sub.add_parser(
        "replay", help="print recorded events back, in landed order, as JSON lines",
    )
    rep.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="campaign store directory the recorded telemetry is read from (required)",
    )
    rep.add_argument("--campaign", default=None, help="only this recorded campaign")
    rep.add_argument(
        "--topic", default=None, metavar="PREFIX",
        help="only topics with this prefix (e.g. worker. or scheduler)",
    )
    rep.add_argument("--kind", default=None, help="only events of this payload kind")
    rep.add_argument("--limit", type=int, default=None, help="stop after N events")

    smk = sub.add_parser(
        "smoke",
        help="CI smoke: tcp fleet + recorder, digest parity, phase attribution",
    )
    smk.add_argument(
        "--scenario", default="fig2.bicriteria",
        help="scenario to run (default: fig2.bicriteria)",
    )
    smk.add_argument("--workers", type=int, default=4, help="fleet size (default: 4)")
    smk.add_argument(
        "--comm", choices=("tcp", "inproc"), default="tcp",
        help="fleet transport (default: tcp)",
    )
    smk.add_argument(
        "--dir", type=Path, default=None, metavar="DIR",
        help="working directory for the store (default: a temp dir)",
    )
    return parser


def _cmd_replay(args: argparse.Namespace) -> int:
    from repro.store.columnar import CampaignStore

    store = CampaignStore(args.store)
    printed = 0
    for record in store.records(campaign=args.campaign):
        if not str(record.get("scenario", "")).startswith(TELEMETRY_SCENARIO_PREFIX):
            continue
        try:
            event = json.loads(record["row_json"])
        except (KeyError, TypeError, ValueError):
            continue
        if args.topic and not str(event.get("topic", "")).startswith(args.topic):
            continue
        if args.kind and event.get("kind") != args.kind:
            continue
        print(json.dumps(event, sort_keys=True))
        printed += 1
        if args.limit is not None and printed >= args.limit:
            break
    print(f"{printed} event(s) replayed from {store.root}", file=sys.stderr)
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    """Fleet + recorder smoke: the CI telemetry job in one command.

    1. serial, unobserved baseline digest;
    2. the same scenario over a recorded ``--workers`` fleet -- digest must
       be bit-identical;
    3. forwarded ``worker.*`` events and span rows must have landed;
    4. ``phase-attribution`` must be non-empty.
    """

    import tempfile

    from repro.distributed.executor import DistributedExecutor
    from repro.scenarios.composer import run_scenario, rows_digest
    from repro.scenarios.registry import get
    from repro.store.columnar import CampaignStore

    spec = get(args.scenario)
    workdir = args.dir or Path(tempfile.mkdtemp(prefix="telemetry-smoke-"))
    workdir.mkdir(parents=True, exist_ok=True)
    store_dir = workdir / "flight"
    failures: List[str] = []

    baseline = run_scenario(spec, smoke=True)
    baseline_digest = rows_digest(baseline.rows)
    print(f"serial baseline: {len(baseline.rows)} rows, digest {baseline_digest[:12]}")

    store = CampaignStore(store_dir, campaign="fleet")
    recorder = TelemetryRecorder(store, campaign="fleet")
    address = "tcp://127.0.0.1:0" if args.comm == "tcp" else "inproc://"
    with recorder, DistributedExecutor(address, workers=args.workers) as executor:
        recorded = run_scenario(spec, smoke=True, executor=executor)
    recorded_digest = rows_digest(recorded.rows)
    print(
        f"{args.comm} fleet ({args.workers} workers, recorded): "
        f"{len(recorded.rows)} rows, digest {recorded_digest[:12]}; "
        f"{recorder.recorded} event(s) landed, {recorder.dropped} dropped"
    )
    if recorded_digest != baseline_digest:
        failures.append("digest mismatch: recording perturbed the results")

    events = [json.loads(r["row_json"]) for r in store.records()]
    worker_events = [e for e in events if str(e.get("topic", "")).startswith("worker.")]
    span_events = [e for e in events if e.get("kind") == "span"]
    print(f"{len(events)} recorded event(s): {len(worker_events)} worker.*, "
          f"{len(span_events)} spans")
    if not worker_events:
        failures.append("no forwarded worker.* events landed in the store")
    if not span_events:
        failures.append("no span events landed in the store")

    phase_rows = run_query(store, "phase-attribution")
    if not phase_rows:
        failures.append("phase-attribution returned no rows")
    else:
        phases = ", ".join(f"{r['phase']}={r['total_seconds']:.3f}s" for r in phase_rows)
        print(f"phase-attribution: {phases}")

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    print(("FAIL" if failures else "ok") + f": telemetry smoke ({store_dir})")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "replay":
        if args.store is None:
            parser.error("replay needs --store DIR")
        return _cmd_replay(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
