"""Command-line interface of the distributed runtime.

::

    # a long-lived worker serving any scheduler at that address
    python -m repro.distributed worker tcp://scheduler-host:8765

    # run scenarios as the scheduler, waiting for external workers
    python -m repro.distributed scheduler fig2.bicriteria --bind tcp://0.0.0.0:8765

    # self-contained local mini-cluster: scheduler + N forked workers
    python -m repro.distributed run fig2.bicriteria --workers 4 --smoke

    # same campaign, no sockets or forks: an in-process coroutine fleet
    python -m repro.distributed run fig2.bicriteria --comm inproc --workers 32 --smoke

    # resume a killed campaign: only incomplete cells re-execute
    python -m repro.distributed run grid.ciment --workers 4 --journal ciment.jsonl

Addresses are scheme-prefixed comm addresses (``tcp://HOST:PORT``,
``inproc://NAME``; see :mod:`repro.distributed.comm`).  The runtime has one
scheduling policy -- guided leases with work stealing always on -- so the
flags of ``scheduler`` and ``run`` only set the fault budget
(``--max-retries``, ``--stall-timeout``), never the policy; a value no
campaign could run with is a usage error.

``scheduler`` and ``run`` accept the same scenario selection as
``python -m repro.scenarios run`` (names or ``--all`` [``--tag``]) and print
the same ok/FAIL summary lines plus a scheduler-stats line (steals,
retries...); exit codes are 0 on success, 1 when a scenario fails, 2 on
usage errors.  The scenarios CLI reaches the same runtime
through ``python -m repro.scenarios run --executor tcp://...`` (or
``--executor inproc://``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.distributed.executor import DistributedExecutor
from repro.distributed.worker import run_worker


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed",
        description="Distributed campaign runner: scheduler, workers, mini-clusters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    worker = sub.add_parser("worker", help="serve campaigns from a scheduler address")
    worker.add_argument("address", help="scheduler address, e.g. tcp://127.0.0.1:8765")
    worker.add_argument("--id", default=None, dest="worker_id", help="worker id (default: host-pid)")
    worker.add_argument(
        "--max-idle", type=float, default=None, metavar="SECONDS",
        help="exit after this long without work or a scheduler (default: serve forever)",
    )
    worker.add_argument(
        "--once", action="store_true",
        help="exit after the first connection ends instead of reconnecting",
    )
    worker.add_argument(
        "--no-telemetry", action="store_true",
        help="never capture or forward spans, even when the scheduler asks",
    )

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("names", nargs="*", help="scenario names (or use --all)")
    common.add_argument("--all", action="store_true", help="run every registered scenario")
    common.add_argument("--tag", default=None, help="with --all: only this tag")
    common.add_argument("--smoke", action="store_true", help="tiny smoke-tier sizes")
    common.add_argument(
        "--journal", type=Path, default=None, metavar="FILE.jsonl",
        help="campaign journal: completed cells are appended and replayed on restart",
    )
    common.add_argument(
        "--max-retries", type=int, default=3,
        help="re-assignments allowed per cell after worker losses, >= 0 (default: 3)",
    )
    common.add_argument(
        "--stall-timeout", type=float, default=120.0, metavar="SECONDS",
        help="abort when no worker is connected for this long, > 0 (default: 120)",
    )
    common.add_argument(
        "--output", type=Path, default=None,
        help="write a JSON summary (per-scenario rows/digest/elapsed) to this file",
    )
    common.add_argument(
        "--dashboard", type=int, default=None, metavar="PORT",
        help="serve the live telemetry dashboard on this port while the "
             "campaigns run (0 picks a free port; the URL goes to stderr)",
    )
    common.add_argument(
        "--record", type=Path, default=None, metavar="DIR",
        help="attach the telemetry flight recorder: land every bus event "
             "(forwarded worker.* spans included) in this campaign store",
    )
    common.add_argument(
        "--record-campaign", default=None, metavar="NAME",
        help="campaign label for recorded telemetry (default: --campaign, "
             "else 'telemetry')",
    )
    from repro.scenarios.cli import _add_export_arguments

    _add_export_arguments(common)

    scheduler = sub.add_parser(
        "scheduler", parents=[common],
        help="run scenarios as the scheduler, served by external workers",
    )
    scheduler.add_argument(
        "--bind", default="tcp://0.0.0.0:8765", metavar="ADDRESS",
        help="comm address to bind the campaign scheduler on "
             "(default: tcp://0.0.0.0:8765)",
    )

    run = sub.add_parser(
        "run", parents=[common],
        help="run scenarios on a self-spawned local fleet",
    )
    run.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="local workers to spawn (default: 2)",
    )
    run.add_argument(
        "--comm", choices=("tcp", "inproc"), default="tcp",
        help="comm backend for the self-contained fleet: 'tcp' forks worker "
             "processes on a loopback port, 'inproc' raises coroutine "
             "workers in this process (default: tcp)",
    )
    return parser


def _cmd_worker(args: argparse.Namespace) -> int:
    def log(message: str) -> None:
        print(message, file=sys.stderr, flush=True)

    try:
        executed = run_worker(
            args.address,
            worker_id=args.worker_id,
            max_idle=args.max_idle,
            once=args.once,
            log=log,
            telemetry=False if args.no_telemetry else None,
        )
    except ValueError as error:  # bad address
        print(error, file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        return 130
    log(f"worker exiting after {executed} cell(s)")
    return 0


def _run_scenarios(args: argparse.Namespace, executor: DistributedExecutor) -> int:
    from repro.scenarios.cli import _open_store, run_specs, select_specs
    from repro.scenarios.spec import SpecError

    specs = select_specs(args.names, args.all, args.tag)
    if not specs:
        if specs is not None:  # an empty --all/--tag selection
            print("no scenarios matched", file=sys.stderr)
        return 2
    try:
        sink = _open_store(args)
    except SpecError as error:
        print(error, file=sys.stderr)
        return 2
    print(f"scheduling onto {executor!r}")
    from contextlib import nullcontext

    from repro.scenarios.cli import serve_dashboard

    recorder = None
    if args.record is not None:
        from repro.telemetry.recorder import TelemetryRecorder

        campaign = args.record_campaign or getattr(args, "campaign", None) or "telemetry"
        recorder = TelemetryRecorder(args.record, campaign=campaign)
    with serve_dashboard(args.dashboard), (recorder or nullcontext()):
        code = run_specs(
            specs,
            smoke=args.smoke,
            executor=executor,
            output=args.output,
            schema="repro.distributed/1",
            sink=sink,
            out=args.out,
            out_format=args.out_format,
        )
    if recorder is not None:
        print(
            f"flight recorder: {recorder.recorded} event(s) -> {args.record} "
            f"(campaign {recorder.campaign}, {recorder.dropped} dropped)",
            file=sys.stderr,
        )
    # One payload shape for the CLI line, the dashboard endpoint and tests.
    counters = {k: v for k, v in executor.stats.to_payload()["counters"].items() if v}
    if counters:
        summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
        print(f"scheduler stats: {summary}", file=sys.stderr)
    return code


def _scheduling_kwargs(args: argparse.Namespace) -> dict:
    return {
        "journal": args.journal,
        "max_retries": args.max_retries,
        "stall_timeout": args.stall_timeout,
    }


def _cmd_scheduler(args: argparse.Namespace) -> int:
    try:
        executor = DistributedExecutor(
            args.bind, workers=0, **_scheduling_kwargs(args)
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    return _run_scenarios(args, executor)


def _cmd_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        print("run needs --workers >= 1 (use the scheduler command for "
              "externally managed workers)", file=sys.stderr)
        return 2
    address = "inproc://" if args.comm == "inproc" else "tcp://127.0.0.1:0"
    try:
        executor = DistributedExecutor(
            address, workers=args.workers, **_scheduling_kwargs(args)
        )
    except ValueError as error:
        print(error, file=sys.stderr)
        return 2
    return _run_scenarios(args, executor)


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "scheduler":
        return _cmd_scheduler(args)
    if args.command == "run":
        return _cmd_run(args)
    parser.error(f"unknown command {args.command!r}")
    return 2
