"""CLI of the dashboard: serve, render a Gantt, or run the CI smoke check.

::

    python -m repro.dashboard                       # = serve on :8484
    python -m repro.dashboard serve --port 0        # free port, URL on stderr
    python -m repro.dashboard gantt cluster.policy-panel --out gantt.svg
    python -m repro.dashboard smoke                 # exit 0/1; used by CI

``serve`` shows this process's telemetry bus.  To watch a campaign, run it
through the scenario runner with the dashboard attached::

    python -m repro.scenarios run cluster.policy-panel --smoke --dashboard 0 \
        --executor inproc:// --workers 4

Exit codes: 0 on success, 1 when the smoke check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
import urllib.error
import urllib.request
from typing import List, Optional

from repro.dashboard.app import DashboardServer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dashboard",
        description="Live telemetry dashboard and Gantt explorer.",
    )
    sub = parser.add_subparsers(dest="command")

    serve = sub.add_parser("serve", help="serve the dashboard (default command)")
    serve.add_argument("--port", type=int, default=8484,
                       help="port to bind (0 picks a free one; default: 8484)")
    serve.add_argument("--host", default="127.0.0.1")

    gantt = sub.add_parser("gantt", help="render one scenario's schedule as SVG")
    gantt.add_argument("scenario", help="a registered, simulator-backed scenario")
    gantt.add_argument("--seed", type=int, default=None,
                       help="cell seed (default: the spec's seed)")
    gantt.add_argument("--full", action="store_true",
                       help="full-tier sizes instead of the smoke tier")
    gantt.add_argument("--out", default=None, metavar="FILE.svg",
                       help="write here instead of stdout")

    smoke = sub.add_parser(
        "smoke",
        help="self-check: serve, run an inproc campaign, poll every endpoint, "
             "assert digest parity with a serial baseline",
    )
    smoke.add_argument("--scenario", default="cluster.policy-panel",
                       help="campaign + Gantt scenario (default: "
                            "cluster.policy-panel)")
    smoke.add_argument("--workers", type=int, default=2,
                       help="inproc fleet size (default: 2)")
    smoke.add_argument("--pollers", type=int, default=2,
                       help="concurrent /api/status pollers during the "
                            "campaign (default: 2)")
    return parser


def _fetch(url: str, timeout: float = 30.0) -> bytes:
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read()


def _cmd_serve(args: argparse.Namespace) -> int:
    with DashboardServer(port=args.port, host=args.host) as server:
        print(f"dashboard serving on {server.url}", file=sys.stderr, flush=True)
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            return 0


def _cmd_gantt(args: argparse.Namespace) -> int:
    from repro.dashboard.gantt import render_scenario_gantt
    from repro.scenarios.spec import SpecError

    try:
        svg = render_scenario_gantt(
            args.scenario, seed=args.seed, smoke=not args.full
        )
    except (KeyError, SpecError) as error:
        print(error, file=sys.stderr)
        return 2
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(svg, encoding="utf-8")
        print(f"gantt written to {args.out}", file=sys.stderr)
    else:
        print(svg)
    return 0


def _cmd_smoke(args: argparse.Namespace) -> int:
    from repro.distributed.executor import DistributedExecutor
    from repro.scenarios import registry
    from repro.scenarios.composer import rows_digest, run_scenario

    try:
        spec = registry.get(args.scenario)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2

    print(f"[1/4] serial baseline: {spec.name}", flush=True)
    baseline = run_scenario(spec, smoke=True)
    baseline_digest = rows_digest(baseline.rows)

    failures: List[str] = []
    with DashboardServer(port=0) as server:
        print(f"[2/4] dashboard up on {server.url}; running inproc campaign "
              f"with {args.pollers} poller(s)", flush=True)
        stop = threading.Event()

        def poll_status() -> None:
            while not stop.is_set():
                try:
                    _fetch(f"{server.url}/api/status", timeout=5.0)
                except urllib.error.URLError:
                    pass
                time.sleep(0.05)

        pollers = [
            threading.Thread(target=poll_status, daemon=True)
            for _ in range(max(args.pollers, 0))
        ]
        for thread in pollers:
            thread.start()
        with DistributedExecutor("inproc://", workers=args.workers) as executor:
            observed = run_scenario(spec, smoke=True, executor=executor)
        stop.set()
        for thread in pollers:
            thread.join(timeout=5.0)
        observed_digest = rows_digest(observed.rows)

        print("[3/4] checking endpoints", flush=True)
        page = _fetch(server.url + "/")
        if b"<html" not in page:
            failures.append("/ did not serve the HTML view")
        status = json.loads(_fetch(server.url + "/api/status"))
        if spec.name not in status.get("sweeps", {}):
            failures.append(f"/api/status has no sweep entry for {spec.name}")
        topics = json.loads(_fetch(server.url + "/api/topics"))["topics"]
        if "sweep" not in topics:
            failures.append("/api/topics lists no 'sweep' topic")
        events = json.loads(_fetch(server.url + "/api/events?topic=sweep&limit=16"))
        if not events.get("events"):
            failures.append("/api/events?topic=sweep returned no events")
        scenarios = json.loads(_fetch(server.url + "/api/scenarios"))["scenarios"]
        gantt_capable = [s["name"] for s in scenarios if s["gantt"]]
        if args.scenario not in gantt_capable:
            failures.append(f"{args.scenario} not Gantt-capable per /api/scenarios")
        svg = _fetch(
            f"{server.url}/gantt.svg?scenario={args.scenario}", timeout=120.0
        )
        if not svg.startswith(b"<svg"):
            failures.append("/gantt.svg did not return an SVG document")

    print("[4/4] digest parity", flush=True)
    if observed_digest != baseline_digest:
        failures.append(
            f"digest drift under observation: serial {baseline_digest[:12]} "
            f"!= inproc+dashboard {observed_digest[:12]}"
        )
    if failures:
        for failure in failures:
            print(f"FAIL {failure}")
        return 1
    print(f"ok   {spec.name}: {len(observed.rows)} rows, digest "
          f"{observed_digest[:12]} identical with dashboard observation; "
          f"all endpoints live")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv:
        argv = ["serve"]
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "gantt":
        return _cmd_gantt(args)
    if args.command == "smoke":
        return _cmd_smoke(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
