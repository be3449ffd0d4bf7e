"""Shared fixtures for the benchmark suite.

Every benchmark regenerates one artifact of the paper (a figure, a platform
description, or a stated performance ratio), prints the reproduced rows /
curves with the reporting helpers, and asserts the *shape* that must hold
(who wins, by roughly what factor) -- not the absolute numbers, which depend
on the authors' unknown workload distributions.

Run with ``pytest benchmarks``.  The sweeps go through the parallel
experiment harness: set ``REPRO_JOBS=N`` to fan the (config, seed) cells out
to a forked fleet of ``N`` workers, or ``REPRO_JOBS=tcp://host:port`` to
schedule them onto distributed workers (results are identical to a serial
run either way), and set ``REPRO_CACHE_DIR=<dir>`` to skip cells already computed by a
previous invocation (the harness reads it; no fixture is involved).
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the benchmarks without an installed distribution, exactly like
# the pythonpath pytest option does for tests/.
SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.experiments.executors import resolve_executor  # noqa: E402
from repro.experiments.harness import run_experiment      # noqa: E402
from repro.scenarios import run_scenario                  # noqa: E402


@pytest.fixture(scope="session")
def bench_executor():
    """Executor shared by every benchmark sweep (selected by REPRO_JOBS).

    One fleet serves the whole session and is closed at its end.
    """

    with resolve_executor(None) as executor:
        yield executor


@pytest.fixture
def run_once(benchmark):
    """Run a heavy experiment exactly once under pytest-benchmark timing."""

    def _run(function, *args, **kwargs):
        return benchmark.pedantic(function, args=args, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture
def run_sweep(run_once, bench_executor):
    """Run a parameter sweep through the harness, timed by pytest-benchmark.

    ``run_sweep(name, run, parameters, repetitions=..., base_seed=...)``
    returns the :class:`~repro.experiments.harness.ExperimentResult`; the
    executor comes from the session fixture above.
    """

    def _run(name, run, parameters=None, *, repetitions=1, base_seed=1234, **kwargs):
        return run_once(
            run_experiment,
            name,
            run,
            parameters,
            repetitions=repetitions,
            base_seed=base_seed,
            executor=bench_executor,
            **kwargs,
        )

    return _run


@pytest.fixture
def run_scenario_sweep(run_once, bench_executor):
    """Run a registered (or derived) :class:`ScenarioSpec` through the harness.

    ``run_scenario_sweep(spec, **kwargs)`` forwards to
    :func:`repro.scenarios.run_scenario` with the session executor, timed
    by pytest-benchmark like every other sweep.
    """

    def _run(spec, **kwargs):
        return run_once(
            run_scenario, spec, executor=bench_executor, **kwargs
        )

    return _run


@pytest.fixture
def report(capsys):
    """Print a report block that survives pytest's output capture."""

    def _print(title: str, body: str) -> None:
        with capsys.disabled():
            print(f"\n===== {title} =====")
            print(body)

    return _print
