"""The untraced measurement loop, its output checks and its normalisation.

A run is an untimed warm-up pass, which fixes every step's reference digest,
then timed passes until the time budget is spent.  Before each step the loop
collects garbage (untimed) and runs the reference slice (timed apart), so
every step carries its own reading of the host's speed.

Throughput is normalised as a ratio of sums within each pass::

    normalised seconds = sum(step wall) * NOMINAL / mean(slice wall)
    cells_per_s_norm   = cells / normalised seconds

and the run reports the median over its passes.  A uniform slowdown of the
host scales both sums alike and cancels.
"""

from __future__ import annotations

import dataclasses
import gc
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from refslice import NOMINAL_SECONDS, ReferenceSlice
from workloads import StepOutcome, Workload


def normalised_rate(
    cells: int,
    step_seconds: Sequence[float],
    slice_seconds: Sequence[float],
    nominal: float = NOMINAL_SECONDS,
) -> float:
    """Cells per second on a host where the slice takes ``nominal`` seconds."""

    mean_slice = sum(slice_seconds) / len(slice_seconds)
    return cells / (sum(step_seconds) * nominal / mean_slice)


@dataclasses.dataclass
class PassTiming:
    cells: int
    step_seconds: List[float]
    slice_seconds: List[float]

    @property
    def rate(self) -> float:
        return normalised_rate(self.cells, self.step_seconds, self.slice_seconds)


@dataclasses.dataclass
class Measurement:
    passes: List[PassTiming]
    cells_attempted: int
    cells_failed: int
    problems: List[str]
    #: The warm-up's step digests, which every later pass must reproduce.
    expected: List[str]

    @property
    def cells_per_s_norm(self) -> float:
        return statistics.median(p.rate for p in self.passes)

    @property
    def raw_wall_s(self) -> float:
        return sum(sum(p.step_seconds) for p in self.passes)

    @property
    def raw_cells_per_s(self) -> float:
        return sum(p.cells for p in self.passes) / self.raw_wall_s

    @property
    def slice_median_s(self) -> float:
        return statistics.median(s for p in self.passes for s in p.slice_seconds)


def check_step(
    label: str,
    outcome: StepOutcome,
    expected: str,
    problems: List[str],
) -> int:
    """Cells of ``outcome`` that count as failed (0 when the step is right).

    A cell error fails that cell; a digest that differs from the expected
    one fails every cell of the step (a read-back step, which has no cells of
    its own, still records the problem and fails the run).
    """

    failed = outcome.errors
    if outcome.errors:
        problems.append(f"{label}: {outcome.errors} cell error(s)")
    if outcome.digest != expected:
        problems.append(f"{label}: digest {outcome.digest[:12]} != expected {expected[:12]}")
        failed = max(outcome.cells, 1)
    return failed


@dataclasses.dataclass
class PassResult:
    outcomes: List[StepOutcome]
    step_seconds: List[float]
    failed: int

    @property
    def cells(self) -> int:
        return sum(outcome.cells for outcome in self.outcomes)


def run_pass(
    workload: Workload,
    executor: object,
    store_dir: Path,
    expected: Sequence[str],
    problems: List[str],
    before_step: Optional[Callable[[], None]] = None,
) -> PassResult:
    """Run one pass, timing each step and checking it against ``expected``.

    ``before_step`` runs before every step, outside the step's timing.
    """

    result = PassResult(outcomes=[], step_seconds=[], failed=0)
    steps = workload.steps(executor, store_dir)
    for label, step, digest in zip(workload.step_labels(), steps, expected):
        if before_step is not None:
            before_step()
        began = time.perf_counter()
        outcome = step()
        result.step_seconds.append(time.perf_counter() - began)
        result.outcomes.append(outcome)
        result.failed += check_step(label, outcome, digest, problems)
    return result


def warm_up(
    workload: Workload,
    executor: object,
    work_dir: Path,
    recorded: Optional[Dict[str, str]],
    problems: List[str],
) -> "tuple[List[str], int]":
    """Run one untimed pass; return its step digests and its failed cells.

    The warm-up fills lazy caches and fixes the digests every timed step
    must reproduce.  ``campaign-inproc`` must also equal a serial run of the
    same cells, and with the default seed every digest must equal the one
    recorded with the benchmark (``recorded``).
    """

    labels = workload.step_labels()
    outcomes = [step() for step in workload.steps(executor, work_dir / "warm-up")]
    references: List[Dict[str, str]] = []
    if workload.distributed:
        references.append(dict(zip(labels, workload.serial_digests())))
    if recorded is not None:
        references.append(recorded)
    failed = 0
    for label, outcome in zip(labels, outcomes):
        for reference in references:
            failed += check_step(label, outcome, reference.get(label, "missing"), problems)
    return [outcome.digest for outcome in outcomes], failed


def measure(
    workload: Workload,
    seconds: float,
    work_dir: Path,
    recorded: Optional[Dict[str, str]] = None,
    *,
    slicer: Optional[ReferenceSlice] = None,
    min_passes: int = 3,
    between_passes: Optional[Callable[[], None]] = None,
) -> Measurement:
    """Warm up, then time whole passes until ``seconds`` have elapsed.

    ``slicer`` is the reference slice; the caller builds it (and freezes it
    out of the collector) before the program is imported.  ``between_passes``
    runs before each timed pass, outside the timing (the set-up probes use it
    to spread their samples over the run).
    """

    problems: List[str] = []
    executor = workload.executor()
    expected, failed = warm_up(workload, executor, work_dir, recorded, problems)
    if slicer is None:
        slicer = ReferenceSlice()
        slicer.run()  # first touch of the working set, untimed
    passes: List[PassTiming] = []
    attempted = 0
    start = time.perf_counter()
    while len(passes) < min_passes or time.perf_counter() - start < seconds:
        if between_passes is not None:
            between_passes()
        slices: List[float] = []

        def before_step() -> None:
            gc.collect()
            slices.append(slicer.run())

        done = run_pass(
            workload, executor, work_dir / f"pass-{len(passes) % 2}", expected, problems,
            before_step,
        )
        attempted += done.cells
        failed += done.failed
        passes.append(PassTiming(done.cells, done.step_seconds, slices))
    return Measurement(passes, attempted, failed, problems, expected)
