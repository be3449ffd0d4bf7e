"""Command-line interface of the scenario registry: the one scenario runner.

::

    python -m repro.scenarios list                     # registered scenarios
    python -m repro.scenarios list --tag grid          # filter by tag
    python -m repro.scenarios describe fig2.bicriteria # spec as TOML
    python -m repro.scenarios run cluster.policy-panel # one scenario
    python -m repro.scenarios run --all --smoke        # CI smoke tier
    python -m repro.scenarios run --all --smoke --jobs 4
                                       # ... on a local forked fleet
    python -m repro.scenarios run --all --smoke --executor inproc:// --workers 32
                                       # ... on an in-process coroutine fleet
    python -m repro.scenarios run --all --smoke --executor tcp://0.0.0.0:8765
                                       # ... on external distributed workers
    python -m repro.scenarios run fig2.bicriteria --store results/ --campaign serial
                                       # ... streaming rows into a campaign store
    python -m repro.scenarios run fig2.bicriteria --smoke --record runs/flight
                                       # ... with the telemetry flight recorder
    python -m repro.scenarios run fig2.bicriteria --smoke --dashboard 0
                                       # ... under the live dashboard
    python -m repro.scenarios sweep cluster.load-ramp --smoke --out out.csv
    python -m repro.scenarios sweep cluster.load-ramp --smoke --out out.parquet
    python -m repro.scenarios sweep swf.replay --axis policy.kind=fifo,backfill

Exit codes: 0 on success, 1 when any scenario fails to run, 2 on usage
errors (unknown scenario names, bad axis syntax, a malformed executor).

``run`` and ``sweep`` share their executor and output flags.  Exports go
through ``--out PATH`` (format inferred from the suffix, or forced with
``--format csv|jsonl|parquet``).  ``--workers N`` sizes the fleet an
``--executor tcp://...`` or ``inproc://...`` address raises itself.  On a
distributed executor a ``scheduler stats:`` line (steals, retries...) goes
to stderr after the run, next to the dashboard URL and the flight-recorder
summary; stdout carries the ok/FAIL lines.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

from repro.scenarios import registry
from repro.scenarios.composer import rows_digest, run_scenario, summarize
from repro.scenarios.spec import ScenarioSpec, SpecError


@contextlib.contextmanager
def _observed(args: argparse.Namespace, executor: Any) -> Iterator[None]:
    """Observe a run: ``--dashboard`` and ``--record`` around it, stats after.

    The dashboard URL, the flight-recorder summary and the scheduler-stats
    line of a distributed executor go to stderr -- stdout stays reserved
    for the ok/FAIL summary lines.  ``--dashboard 0`` binds a free port.
    """

    with contextlib.ExitStack() as stack:
        if args.dashboard is not None:
            from repro.dashboard.app import DashboardServer

            server = stack.enter_context(DashboardServer(port=args.dashboard))
            print(f"dashboard serving on {server.url}", file=sys.stderr, flush=True)
        recorder = None
        if args.record is not None:
            from repro.telemetry.recorder import TelemetryRecorder

            recorder = stack.enter_context(
                TelemetryRecorder(args.record, campaign=args.campaign or "telemetry")
            )
        yield
    if recorder is not None:
        print(
            f"flight recorder: {recorder.recorded} event(s) -> {args.record} "
            f"(campaign {recorder.campaign}, {recorder.dropped} dropped, "
            f"{recorder.skipped} skipped)",
            file=sys.stderr,
        )
    # Only a DistributedExecutor keeps scheduler counters; one payload shape
    # serves this line, the dashboard endpoint and the tests.
    stats = getattr(executor, "stats", None)
    if stats is not None:
        counters = {k: v for k, v in stats.to_payload()["counters"].items() if v}
        if counters:
            summary = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
            print(f"scheduler stats: {summary}", file=sys.stderr)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List, describe and run the registered simulation scenarios.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    lst = sub.add_parser("list", help="list registered scenarios")
    lst.add_argument("--tag", default=None, help="only scenarios carrying this tag")
    lst.add_argument("--names-only", action="store_true", help="one name per line")

    describe = sub.add_parser("describe", help="print one scenario spec")
    describe.add_argument("name")
    describe.add_argument(
        "--format", choices=("toml", "json"), default="toml", dest="fmt",
        help="output format (default: toml)",
    )

    run = sub.add_parser("run", help="run scenarios and print a summary")
    run.add_argument("names", nargs="*", help="scenario names (or use --all)")
    run.add_argument("--all", action="store_true", help="run every registered scenario")
    run.add_argument("--tag", default=None, help="with --all: only this tag")
    run.add_argument("--smoke", action="store_true", help="tiny smoke-tier sizes")
    run.add_argument(
        "--output", type=Path, default=None,
        help="write a JSON summary (per-scenario rows/digest/elapsed) to this file",
    )
    run.add_argument(
        "--spec", type=Path, action="append", default=[], dest="spec_files",
        metavar="FILE.toml", help="also run a scenario spec loaded from a TOML file",
    )
    _add_runner_arguments(run)

    swp = sub.add_parser("sweep", help="run one scenario sweep and print the rows")
    swp.add_argument("name")
    swp.add_argument("--smoke", action="store_true", help="start from the smoke tier")
    swp.add_argument(
        "--axis", action="append", default=[], metavar="PATH=V1,V2,...",
        help="override a sweep axis (repeatable), e.g. policy.kind=fifo,backfill",
    )
    swp.add_argument("--repetitions", type=int, default=None)
    swp.add_argument(
        "--group-by", default=None, metavar="COLUMN",
        help="also print per-group means of every numeric metric",
    )
    _add_runner_arguments(swp)
    return parser


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """The executor, observation and export flags ``run`` and ``sweep`` share."""

    from repro.store.api import FORMATS

    parser.add_argument(
        "--executor", "--jobs", default=None, dest="jobs", metavar="SPEC",
        help="executor spec: 'serial' (or 1), a worker count N > 1 for a local "
             "forked fleet, 'auto' (or 0) for one worker per CPU, "
             "tcp://HOST:PORT to schedule cells onto external distributed "
             "workers, or inproc://NAME for an in-process fleet",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="with --executor tcp://... or inproc://...: raise N local "
             "workers for it (tcp:// forks processes, inproc:// runs coroutines)",
    )
    parser.add_argument(
        "--dashboard", type=int, default=None, metavar="PORT",
        help="serve the live telemetry dashboard on this port during the run "
             "(0 picks a free port; the URL goes to stderr)",
    )
    parser.add_argument(
        "--record", type=Path, default=None, metavar="DIR",
        help="attach the telemetry flight recorder: land every bus event "
             "(forwarded worker.* spans included) in this campaign store",
    )
    parser.add_argument(
        "--out", type=Path, default=None, metavar="PATH",
        help="write the result rows to this file (csv/jsonl/parquet, "
             "inferred from the suffix)",
    )
    parser.add_argument(
        "--format", choices=FORMATS, default=None, dest="out_format",
        help="force the --out format instead of inferring it from the suffix",
    )
    parser.add_argument(
        "--store", type=Path, default=None, metavar="DIR",
        help="stream every completed cell into this campaign store directory "
             "(query it with python -m repro.store)",
    )
    parser.add_argument(
        "--campaign", default=None, metavar="NAME",
        help="campaign label inside --store (default: 'default') and of the "
             "--record events (default: 'telemetry')",
    )


def _open_store(args: argparse.Namespace) -> Optional[Any]:
    if args.store is None:
        if args.campaign and args.record is None:
            raise SpecError("--campaign needs --store DIR or --record DIR")
        return None
    from repro.store.columnar import CampaignStore

    return CampaignStore(args.store, campaign=args.campaign or "default")


def _executor(args: argparse.Namespace) -> Any:
    """Resolve ``--executor``/``--jobs`` (and ``--workers``) eagerly.

    Resolving here (instead of letting ``run_scenario`` do it per scenario)
    makes a malformed spec -- ``REPRO_JOBS`` included, when no flag is given
    -- a *usage* error: one message, exit code 2, rather than N per-scenario
    FAIL lines pretending the scenarios broke.  Raises :class:`ValueError`
    (an :class:`~repro.experiments.executors.ExecutorSpecError` for a bad
    spec).
    """

    spec, workers = args.jobs, args.workers
    if workers is not None:
        if spec is None or not spec.lower().startswith(("tcp://", "inproc://")):
            raise ValueError("--workers needs --executor tcp://HOST:PORT or inproc://NAME")
        if workers < 1:
            raise ValueError("--workers must be >= 1")
        from repro.distributed.executor import DistributedExecutor

        return DistributedExecutor(spec, workers=workers)
    from repro.experiments.executors import resolve_executor

    try:
        value: Any = int(spec)
    except (TypeError, ValueError):  # None (REPRO_JOBS decides) or a spec string
        value = spec
    return resolve_executor(value)


def _parse_axis_value(token: str) -> Any:
    lowered = token.strip().lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for converter in (int, float):
        try:
            return converter(token)
        except ValueError:
            continue
    return token


def _parse_axes(pairs: List[str]) -> Dict[str, List[Any]]:
    axes: Dict[str, List[Any]] = {}
    for pair in pairs:
        path, sep, values = pair.partition("=")
        if not sep or not path or not values:
            raise SpecError(f"bad --axis {pair!r}: expected PATH=V1,V2,...")
        axes[path] = [_parse_axis_value(v) for v in values.split(",")]
    return axes


def _cmd_list(args: argparse.Namespace) -> int:
    specs = registry.all_specs(args.tag)
    if args.names_only:
        for spec in specs:
            print(spec.name)
        return 0
    if not specs:
        print("no scenarios registered" + (f" with tag {args.tag!r}" if args.tag else ""))
        return 0
    width = max(len(spec.name) for spec in specs)
    for spec in specs:
        tags = ",".join(spec.tags)
        cells = 1
        for values in spec.sweep.values():
            cells *= len(values)
        cells *= spec.repetitions
        print(f"{spec.name:<{width}}  [{spec.model}] ({cells} cells)  {spec.description}"
              + (f"  <{tags}>" if tags else ""))
    print(f"\n{len(specs)} scenario(s) registered")
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    try:
        spec = registry.get(args.name)
    except KeyError as error:
        print(error, file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(json.dumps(spec.to_dict(), indent=2, sort_keys=True))
    else:
        print(spec.to_toml(), end="")
    return 0


def select_specs(names: List[str], use_all: bool, tag: Optional[str]) -> Optional[List[ScenarioSpec]]:
    """Resolve the scenario selection of ``run`` (names, or ``--all`` [``--tag``]).

    On a usage error (unknown name, empty selection) prints the message and
    returns ``None`` -- the caller exits 2.
    """

    if use_all:
        return registry.all_specs(tag)
    if names:
        try:
            return registry.resolve(names)
        except KeyError as error:
            print(error, file=sys.stderr)
            return None
    print("nothing to run: give scenario names, --spec files or --all", file=sys.stderr)
    return None


def run_specs(
    specs: List[ScenarioSpec],
    *,
    smoke: bool,
    executor: Any = None,
    output: Optional[Path] = None,
    sink: Any = None,
    out: Optional[Path] = None,
    out_format: Optional[str] = None,
) -> int:
    """Run scenario specs, print ok/FAIL summary lines, optionally write JSON.

    Every completed cell streams into ``sink`` (a
    :class:`~repro.store.api.RowSink`, e.g. a campaign store) when one is
    given; ``out`` additionally exports the concatenated rows through
    :func:`repro.store.api.write_rows`.  Returns 1 when any scenario failed,
    else 0.
    """

    tier = "smoke" if smoke else "full"
    summaries: List[Dict[str, Any]] = []
    exported: List[Dict[str, Any]] = []
    failures = 0
    for spec in specs:
        try:
            result = run_scenario(spec, smoke=smoke, executor=executor, sink=sink)
        except Exception as error:  # a broken scenario must fail the build, visibly
            failures += 1
            message = f"{type(error).__name__}: {error}"
            print(f"FAIL {spec.name}: {message.splitlines()[0][:160]}")
            summaries.append({"name": spec.name, "tier": tier, "ok": False, "error": message})
            continue
        outcome = summarize(spec, result, store=sink)
        if out is not None:
            exported.extend(result.rows)
            outcome.rows_path = str(out)
        # Cells the result cache replayed, whatever the executor.
        replayed = f", {outcome.cache_hits} cached" if outcome.cache_hits else ""
        print(
            f"ok   {outcome.name}: {outcome.rows} rows in "
            f"{outcome.elapsed_seconds:.2f}s [{outcome.executor}{replayed}] "
            f"digest {outcome.digest[:12]}"
        )
        summaries.append({"tier": tier, "ok": True, **outcome.to_dict()})
    print(f"\n{len(specs) - failures}/{len(specs)} scenario(s) passed ({tier} tier)")
    if sink is not None:
        sink.flush()
    if out is not None:
        from repro.store.api import write_rows

        write_rows(exported, out, fmt=out_format)
        print(f"{len(exported)} row(s) written to {out}")
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(
            {"schema": "repro.scenarios/1", "tier": tier, "scenarios": summaries},
            indent=2, sort_keys=True,
        ) + "\n")
        print(f"summary written to {output}")
    return 1 if failures else 0


def _cmd_run(args: argparse.Namespace) -> int:
    try:
        executor = _executor(args)
        sink = _open_store(args)
    except ValueError as error:  # SpecError and ExecutorSpecError included
        print(error, file=sys.stderr)
        return 2
    if args.all or args.names or not args.spec_files:
        specs = select_specs(args.names, args.all, args.tag)
        if specs is None:
            return 2
    else:
        specs = []
    for path in args.spec_files:
        try:
            specs.append(ScenarioSpec.from_toml(path.read_text()))
        except (OSError, SpecError) as error:
            print(f"cannot load spec {path}: {error}", file=sys.stderr)
            return 2
    if not specs:
        print("no scenarios matched", file=sys.stderr)
        return 2
    with executor, _observed(args, executor):
        return run_specs(
            specs, smoke=args.smoke, executor=executor, output=args.output,
            sink=sink, out=args.out, out_format=args.out_format,
        )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.reporting import ascii_table

    try:
        spec = registry.get(args.name)
        axes = _parse_axes(args.axis)
        executor = _executor(args)
        sink = _open_store(args)
    except (KeyError, ValueError) as error:
        print(error, file=sys.stderr)
        return 2
    sweep = dict(spec.smoke_spec().sweep if args.smoke else spec.sweep)
    sweep.update(axes)
    try:
        with executor, _observed(args, executor):
            result = run_scenario(
                spec,
                smoke=args.smoke,
                sweep=sweep,
                repetitions=args.repetitions,
                executor=executor,
                sink=sink,
            )
    except Exception as error:
        print(f"FAIL {spec.name}: {type(error).__name__}: {error}", file=sys.stderr)
        return 1
    print(ascii_table(result.rows, title=f"{spec.name} ({len(result.rows)} rows)"))
    if args.group_by:
        # Group on repr: sweep-axis values may be unhashable (lists, dicts).
        groups: Dict[str, List[Dict[str, Any]]] = {}
        for row in result.rows:
            groups.setdefault(repr(row.get(args.group_by)), []).append(row)
        grouped_rows = []
        for value, rows in sorted(groups.items()):
            row = {args.group_by: value}
            for key in rows[0]:
                values = [r[key] for r in rows if isinstance(r.get(key), (int, float))
                          and not isinstance(r.get(key), bool)]
                if values and key != args.group_by:
                    row[key] = sum(values) / len(values)
            grouped_rows.append(row)
        print(ascii_table(grouped_rows, title=f"means by {args.group_by}"))
    print(f"digest {rows_digest(result.rows)[:12]}, elapsed {result.elapsed_seconds:.2f}s")
    if args.out is not None:
        from repro.store.api import write_rows

        write_rows(result.rows, args.out, fmt=args.out_format)
        print(f"rows written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(args)
    if args.command == "describe":
        return _cmd_describe(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    parser.error(f"unknown command {args.command!r}")
    return 2
