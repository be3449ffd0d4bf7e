"""Command-line interface of the distributed runtime: the worker.

::

    # a long-lived worker serving any scheduler at that address
    python -m repro.distributed worker tcp://scheduler-host:8765

    # the scheduler side is the scenario runner, bound to the same address
    python -m repro.scenarios run fig2.bicriteria --executor tcp://0.0.0.0:8765

    # self-contained local mini-cluster: scheduler + N forked workers
    python -m repro.scenarios run fig2.bicriteria --smoke \
        --executor tcp://127.0.0.1:0 --workers 4

    # same campaign, no sockets or forks: an in-process coroutine fleet
    python -m repro.scenarios run fig2.bicriteria --smoke --executor inproc:// --workers 32

    # resume a killed campaign: cached cells replay, only the rest execute
    REPRO_CACHE_DIR=.repro-cache python -m repro.scenarios run fig3.ciment.centralized \
        --executor inproc:// --workers 4

Addresses are scheme-prefixed comm addresses (``tcp://HOST:PORT``,
``inproc://NAME``; see :mod:`repro.distributed.comm`).  Scenarios run
through ``python -m repro.scenarios run|sweep`` only: with a distributed
``--executor`` it binds one scheduler for the whole run -- every scenario
is one campaign on it -- and prints a scheduler-stats line (steals,
retries...) to stderr.  The runtime has one
scheduling policy -- guided leases with work stealing always on -- and fixed
timings: its heartbeat, retry budget and stall guard are the constants of
:mod:`repro.distributed.scheduler`, not flags.

Exit codes of ``worker``: 0 after a clean exit, 2 on a bad address, 130
on Ctrl-C.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.distributed.worker import run_worker


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.distributed",
        description="Distributed campaign worker (schedule with python -m repro.scenarios run).",
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
        "--no-telemetry", action="store_true",
        help="never capture or forward spans, even when the scheduler asks",
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


def main(argv: Optional[List[str]] = None) -> int:
    return _cmd_worker(_build_parser().parse_args(argv))
