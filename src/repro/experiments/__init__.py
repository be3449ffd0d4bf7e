"""Experiment harness: the code that regenerates the paper's figures.

* :mod:`repro.experiments.harness` -- generic experiment runner (parameter
  sweeps, repetitions over seeds, result tables) built on three separable
  stages: grid expansion (:mod:`repro.experiments.grid`), parallel cell
  execution (:mod:`repro.experiments.executors`: serial, or a forked
  fleet behind the distributed scheduler, selected with the ``REPRO_JOBS``
  environment variable) and streamed aggregation, with an
  optional on-disk cell cache (:mod:`repro.experiments.cache`);
* :mod:`repro.experiments.figure2` -- the Figure 2 simulation (bi-criteria
  algorithm on a 100-machine cluster, parallel vs non-parallel workloads);
* :mod:`repro.experiments.ratio_checks` -- empirical verification of the
  approximation ratios stated in the paper (3/2 + eps, 3 + eps, 8 / 8.53,
  4 rho);
* :mod:`repro.experiments.reporting` -- ASCII tables / line plots and CSV
  export used by the examples and benchmarks.
"""

from repro.experiments.cache import ResultCache
from repro.experiments.executors import Executor, SerialExecutor, resolve_executor
from repro.experiments.grid import Cell, CellOutcome, expand_grid
from repro.experiments.harness import CellExecutionError, ExperimentResult, run_experiment
from repro.experiments.figure2 import (
    Figure2Config,
    Figure2Point,
    run_figure2,
    run_figure2_point,
)
from repro.experiments.ratio_checks import (
    check_mrt_ratio,
    check_batch_ratio,
    check_smart_ratio,
    check_bicriteria_ratio,
)
from repro.experiments.reporting import ascii_table, ascii_plot, to_csv

__all__ = [
    "Cell",
    "CellOutcome",
    "CellExecutionError",
    "Executor",
    "SerialExecutor",
    "ResultCache",
    "resolve_executor",
    "expand_grid",
    "run_experiment",
    "ExperimentResult",
    "Figure2Config",
    "Figure2Point",
    "run_figure2",
    "run_figure2_point",
    "check_mrt_ratio",
    "check_batch_ratio",
    "check_smart_ratio",
    "check_bicriteria_ratio",
    "ascii_table",
    "ascii_plot",
    "to_csv",
]
