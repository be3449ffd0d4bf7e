"""Scenario benchmark: host-normalised cells/s on four workloads.

Run from the repository root::

    python3 perfbench/run.py --workload cluster-online --seed 1 --seconds 10 --trace 0

``--trace 0`` times whole passes of the workload and prints the end-to-end
metrics (``cells_per_s_norm``, ``setup_s``, ``peak_rss_mb``) with raw-time
diagnostics.  ``setup_s`` and ``peak_rss_mb`` come from fresh child
interpreters, so neither includes the benchmark's own work.  ``--trace 1`` is a separate traced run that prints the
per-layer metrics instead.  Either way the last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; a digest
mismatch or a cell error makes the run incorrect and the exit code 1.

``--spread N`` runs the workload N times (seeds ``seed .. seed+N-1``, one
fresh process each) and prints each metric's median and quartiles.
``--record-digests`` rewrites ``digests.json`` from the default seed.

Scratch files (campaign stores, the span dump) go under
``.perfbench-work/`` in the repository root.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from refslice import NOMINAL_SECONDS, ReferenceSlice

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
DIGESTS = HERE / "digests.json"

#: Environment switches that would make cells replays or perturb timing.
REFUSED_ENV = ("REPRO_JOURNAL", "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_SPANS")
SETUP_PROBES = 7
#: Reference slices each set-up probe times, after its first row.
PROBE_SLICES = 7
END_TO_END = {"cells_per_s_norm": "cells/s", "setup_s": "s", "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or a perturbed environment)."""


def prepare() -> None:
    """Put this checkout's ``src`` first on the path and refuse to time a
    perturbed environment."""

    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    set_vars = [name for name in REFUSED_ENV if os.environ.get(name, "").strip()]
    if set_vars:
        raise BenchError(f"refusing to time with {', '.join(set_vars)} set; unset and re-run")
    from repro.bench.runner import assert_unperturbed_timing

    assert_unperturbed_timing()


def environment() -> Dict[str, Any]:
    from repro.simulation.kernel import resolve_kernel

    return {
        "kernel": resolve_kernel(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def recorded_digests(args: argparse.Namespace) -> Optional[Dict[str, str]]:
    """The digests recorded with the benchmark, for full-size default-seed runs."""

    from workloads import DEFAULT_SEED

    if args.seed != DEFAULT_SEED or args.tiny:
        return None
    return json.loads(DIGESTS.read_text()).get(args.workload, {})


# ---------------------------------------------------------------------------
# Set-up time and peak memory: fresh child interpreters
# ---------------------------------------------------------------------------


def frozen_slice() -> ReferenceSlice:
    """A touched reference slice, frozen out of the collector.

    Called before the program is imported, so the slice (and the stdlib the
    benchmark itself loaded) is all that is frozen; the program's modules
    and caches age through the collector as in a user's run.
    """

    slicer = ReferenceSlice()
    slicer.run()
    gc.collect()
    gc.freeze()
    return slicer


def probe_setup(workload: str, seed: int, work_dir: Path, began: float) -> None:
    """Child side: import, build the workload, produce its first row.

    ``began`` is when :func:`main` started, before :func:`prepare` imported
    the first ``repro`` module.  After the first row, which stops the
    parent's clock, the child times the reference slice, so the parent can
    normalise this probe by the host's speed at that moment.
    """

    import repro.scenarios  # noqa: F401  (imports the package and the registry)

    import_s = time.perf_counter() - began
    from workloads import Workload

    bench = Workload(workload, seed)
    sink = None
    if bench.distributed:
        from repro.store.columnar import CampaignStore

        shutil.rmtree(work_dir, ignore_errors=True)
        sink = CampaignStore(work_dir, campaign="perfbench", fmt="jsonl")
    result = bench.units[0].first_cell().run(bench.executor(), sink)
    print(f"first-row {import_s!r} {len(result.rows)} {len(result.errors)}", flush=True)
    slicer = frozen_slice()
    walls = []
    for _ in range(PROBE_SLICES):
        gc.collect()
        walls.append(slicer.run())
    print(f"slice {statistics.median(walls)!r}", flush=True)


class SetupProbes:
    """Time fresh interpreters from spawn to their first row.

    Probes run one at a time and are waited for.  The first, untimed probe
    compiles bytecode, so every timed one starts as a user's second run
    would.  Each probe is normalised like throughput: its wall time times
    ``NOMINAL / slice``, where ``slice`` is the reference slice's median wall
    inside the same child, just after its first row.
    """

    def __init__(self, workload: str, seed: int, work_dir: Path) -> None:
        self.command = [
            sys.executable, str(Path(__file__).resolve()), "--probe-setup",
            "--workload", workload, "--seed", str(seed), "--work-dir", str(work_dir),
        ]
        self.walls: List[float] = []
        self.slices: List[float] = []
        self.imports: List[float] = []
        self._probe()

    def _probe(self) -> Tuple[float, float, float]:
        began = time.perf_counter()
        with subprocess.Popen(self.command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            wall = time.perf_counter() - began
            rest = child.stdout.read().split()
            code = child.wait(timeout=120)
        fields = line.split()
        if (code != 0 or len(fields) != 4 or fields[0] != "first-row" or fields[3] != "0"
                or len(rest) != 2 or rest[0] != "slice"):
            raise BenchError(f"set-up probe failed (exit {code}): {line.strip()!r}")
        return wall, float(rest[1]), float(fields[1])

    def sample(self, wanted: int) -> None:
        """Take one timed probe, unless ``wanted`` have been taken."""

        if len(self.walls) < wanted:
            wall, slice_s, import_s = self._probe()
            self.walls.append(wall)
            self.slices.append(slice_s)
            self.imports.append(import_s)

    @property
    def setup_s(self) -> float:
        """Median normalised probe: set-up seconds on the nominal host."""

        return statistics.median(
            wall * NOMINAL_SECONDS / slice_s for wall, slice_s in zip(self.walls, self.slices)
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe_rss(workload: str, seed: int, work_dir: Path, tiny: bool) -> None:
    """Child side: run one pass of the workload -- no warm-up, no slice, no
    serial reference -- and print its step outcomes and this interpreter's
    peak RSS as one JSON line."""

    from workloads import Workload

    bench = Workload(workload, seed, tiny=tiny)
    outcomes = [step() for step in bench.steps(bench.executor(), work_dir)]
    print(json.dumps({
        "peak_rss_mb": peak_rss_mb(),
        "steps": [[outcome.digest, outcome.cells, outcome.errors] for outcome in outcomes],
    }))


def measure_peak_rss(args: argparse.Namespace, work_dir: Path) -> Tuple[float, List[Any]]:
    """Peak RSS of a fresh interpreter running one pass, and that pass's
    step outcomes (for the caller to check)."""

    from workloads import StepOutcome

    command = [
        sys.executable, str(Path(__file__).resolve()), "--probe-rss",
        "--workload", args.workload, "--seed", str(args.seed), "--work-dir", str(work_dir),
    ] + (["--tiny"] if args.tiny else [])
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"peak-RSS probe failed (exit {done.returncode}): {done.stderr[-500:]}")
    report = json.loads(lines[-1])
    outcomes = [StepOutcome(digest, cells, errors) for digest, cells, errors in report["steps"]]
    return report["peak_rss_mb"], outcomes


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------


def run_timed(args: argparse.Namespace, work_dir: Path, slicer: ReferenceSlice) -> Dict[str, Any]:
    from measure import check_step, measure
    from workloads import Workload

    probes = SetupProbes(args.workload, args.seed, work_dir / "probe")
    bench = Workload(args.workload, args.seed, tiny=args.tiny)
    result = measure(
        bench, args.seconds, work_dir, recorded_digests(args), slicer=slicer,
        between_passes=lambda: probes.sample(SETUP_PROBES),
    )
    for _ in range(SETUP_PROBES):
        probes.sample(SETUP_PROBES)
    rss_mb, rss_outcomes = measure_peak_rss(args, work_dir / "rss")
    for label, outcome, digest in zip(bench.step_labels(), rss_outcomes, result.expected):
        result.cells_attempted += outcome.cells
        result.cells_failed += check_step(f"peak-RSS pass {label}", outcome, digest, result.problems)
    metrics = {
        "cells_per_s_norm": result.cells_per_s_norm,
        "setup_s": probes.setup_s,
        "peak_rss_mb": rss_mb,
    }
    print(f"  passes {len(result.passes)}, cells_attempted {result.cells_attempted}, "
          f"cells_failed {result.cells_failed}")
    for name, value in metrics.items():
        print(f"  {name:<18} {value:12.4f} {END_TO_END[name]}")
    print("  diagnostics (not metrics): "
          f"raw_wall_s {result.raw_wall_s:.3f}, raw_cells_per_s {result.raw_cells_per_s:.2f}, "
          f"slice_median_ms {1e3 * result.slice_median_s:.2f}, "
          f"raw_setup_s {statistics.median(probes.walls):.4f}, "
          f"probe_slice_median_ms {1e3 * statistics.median(probes.slices):.2f}")
    for problem in result.problems:
        print(f"  FAILED {problem}")
    return {
        "correct": not result.problems,
        "attempted": result.cells_attempted,
        "failed": result.cells_failed,
        "metrics": {name: {"value": value, "unit": END_TO_END[name]} for name, value in metrics.items()},
    }


def run_traced(args: argparse.Namespace, work_dir: Path) -> Dict[str, Any]:
    from tracing import TracedRun, where_the_time_goes
    from workloads import Workload

    probes = SetupProbes(args.workload, args.seed, work_dir / "probe")
    for _ in range(3):
        probes.sample(3)
    bench = Workload(args.workload, args.seed, tiny=args.tiny)
    traced = TracedRun(bench, work_dir, recorded_digests(args))
    spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
    metrics = traced.run(args.seconds, spans_path)
    metrics["setup.import_s"] = statistics.median(probes.imports)
    print(f"  spans written to {spans_path.relative_to(ROOT)}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<40} {value:14.6g}")
    print(f"\nwhere the time goes ({args.workload}, cProfile fold):")
    for row in where_the_time_goes(metrics):
        print(row)
    for problem in traced.problems:
        print(f"  FAILED {problem}")
    return {
        "correct": not traced.problems,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""

    if name.endswith(("self_share", "overhead", "executions_per_cell")):
        return "ratio"
    if name.endswith("_ms_per_cell"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def record_digests() -> None:
    """Rewrite ``digests.json``: every step digest at the default seed."""

    from workloads import DEFAULT_SEED, WORKLOADS, Workload

    recorded = {}
    for name in WORKLOADS:
        bench = Workload(name, DEFAULT_SEED)
        steps = bench.steps(bench.executor(), WORK / "record")
        recorded[name] = {label: step().digest for label, step in zip(bench.step_labels(), steps)}
    DIGESTS.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded digests of {len(recorded)} workloads in {DIGESTS.relative_to(ROOT)}")


def spread(args: argparse.Namespace) -> None:
    """Run the workload ``--spread`` times in fresh processes; print quartiles."""

    values: Dict[str, List[float]] = {}
    for offset in range(args.spread):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed + offset), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
        report = json.loads(done.stdout.strip().splitlines()[-1])
        if done.returncode != 0 or not report["correct"]:
            raise BenchError(f"seed {args.seed + offset} failed:\n{done.stdout[-2000:]}")
        for name, metric in report["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {args.seed + offset}: " + ", ".join(
            f"{name} {metric['value']:.4g}" for name, metric in report["metrics"].items()
        ), flush=True)
    print(f"\n{args.workload}: {args.spread} runs")
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/median':>11}")
    for name, series in values.items():
        q1, median, q3 = statistics.quantiles(series, n=4)
        relative = (q3 - q1) / median if median else float("nan")
        print(f"{name:<40} {median:12.5g} {q1:12.5g} {q3:12.5g} {relative:11.2%}")


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    from workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="N")
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--tiny", action="store_true", help="smoke-sized units (tests)")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-rss", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--work-dir", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.record_digests and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv: Optional[List[str]] = None) -> int:
    began = time.perf_counter()
    args = parse_args(argv)
    timed = not (args.probe_setup or args.probe_rss or args.record_digests or args.spread
                 or args.trace)
    slicer = frozen_slice() if timed else None
    try:
        prepare()
        if args.probe_setup:
            probe_setup(args.workload, args.seed, args.work_dir, began)
            return 0
        if args.probe_rss:
            probe_rss(args.workload, args.seed, args.work_dir, args.tiny)
            return 0
        if args.record_digests:
            record_digests()
            return 0
        if args.spread:
            spread(args)
            return 0
        env = environment()
        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
              f"kernel={env['kernel']} python={env['python']} nproc={env['nproc']}")
        work_dir = WORK / f"{args.workload}-{os.getpid()}"
        try:
            report = run_timed(args, work_dir, slicer) if timed else run_traced(args, work_dir)
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return 0 if report["correct"] and report["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
