"""Tests of the parallel sweep engine: executors, determinism, cache, errors.

The run functions live at module level so they are picklable by reference
for the forked worker fleet.
"""

from __future__ import annotations

import inspect
import time

import numpy as np
import pytest

from repro.experiments import executors
from repro.experiments.cache import ResultCache
from repro.distributed import DistributedExecutor
from repro.experiments.executors import (
    JOBS_ENV_VAR,
    LOCAL_FLEET_ADDRESS,
    SPEC_FORMS,
    ExecutorSpecError,
    SerialExecutor,
    cpu_count,
    resolve_executor,
)
from repro.experiments.grid import Cell, cell_key, expand_grid
from repro.experiments.harness import (
    CellExecutionError,
    run_experiment,
    run_fingerprint,
)
from repro.telemetry import CallbackListener

GRID_4x4 = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}  # x4 reps = 64 cells


def seeded_metrics(seed, a, b):
    """Deterministic floating-point metrics (bit-identical across runs)."""

    rng = np.random.default_rng(seed * 100_003 + a * 1009 + b)
    return {"value": float(rng.normal()), "score": float(rng.random()) * a + b}


def failing_on_three(seed, n):
    if n == 3:
        raise ValueError(f"bad cell n={n}")
    return {"n_squared": n * n}


def sleeping_cell(seed, slot):
    """A cell dominated by waiting (I/O-like): overlaps even on one core."""

    time.sleep(0.02)
    return {"slot": slot, "seed_used": seed}


CALL_LOG = []


def counting_cell(seed, x):
    CALL_LOG.append((seed, x))
    return {"double": 2 * x}


class TestGridExpansion:
    def test_order_params_and_seeds(self):
        cells = expand_grid({"b": [5, 1], "a": ["x"]}, repetitions=2, base_seed=100)
        assert [cell.index for cell in cells] == [0, 1, 2, 3]
        # Sorted key order, values in given order, repetitions innermost.
        assert cells[0].params == (("a", "x"), ("b", 5))
        assert cells[2].params == (("a", "x"), ("b", 1))
        assert [cell.seed for cell in cells] == [100, 101, 100, 101]

    def test_empty_grid_is_one_combo(self):
        cells = expand_grid({}, repetitions=3, base_seed=7)
        assert len(cells) == 3
        assert all(cell.params == () for cell in cells)

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            expand_grid({}, repetitions=0)

    def test_cell_key_distinguishes_cells_and_versions(self):
        cell_a, cell_b = expand_grid({"n": [1, 2]}, repetitions=1)
        assert cell_key("e", cell_a) != cell_key("e", cell_b)
        assert cell_key("e", cell_a) != cell_key("other", cell_a)
        assert cell_key("e", cell_a, "v1") != cell_key("e", cell_a, "v2")
        assert cell_key("e", cell_a) == cell_key("e", Cell(0, 0, 1234, (("n", 1),)))


class TestExecutorSelection:
    def test_resolve_specs(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor(1), SerialExecutor)
        assert isinstance(resolve_executor("1"), SerialExecutor)
        existing = SerialExecutor()
        assert resolve_executor(existing) is existing
        with pytest.raises(ValueError):
            resolve_executor("carrier-pigeon")

    def test_worker_count_gives_loopback_fleet(self):
        fleet = resolve_executor(6)
        assert isinstance(fleet, DistributedExecutor)
        assert fleet.address == LOCAL_FLEET_ADDRESS == "tcp://127.0.0.1:0"
        assert fleet.workers == 6

    @pytest.mark.parametrize("spec", ["auto", "AUTO", "0", 0])
    def test_auto_gives_one_worker_per_cpu(self, spec, monkeypatch):
        monkeypatch.setattr(executors, "cpu_count", lambda: 2)
        fleet = resolve_executor(spec)
        assert isinstance(fleet, DistributedExecutor)
        assert fleet.address == LOCAL_FLEET_ADDRESS
        assert fleet.workers == 2

    @pytest.mark.parametrize("spec", ["auto", "0", 0, None])
    def test_auto_on_one_cpu_runs_serial(self, spec, monkeypatch):
        monkeypatch.setattr(executors, "cpu_count", lambda: 1)
        monkeypatch.setenv(JOBS_ENV_VAR, "auto")  # what a None spec reads
        assert isinstance(resolve_executor(spec), SerialExecutor)
        # Explicit fleets are unchanged on a one-CPU host.
        assert resolve_executor(3).workers == 3
        assert resolve_executor("inproc://").workers == 1
        assert resolve_executor("tcp://127.0.0.1:8765").workers == 0

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV_VAR, raising=False)
        assert isinstance(resolve_executor(None), SerialExecutor)
        monkeypatch.setenv(JOBS_ENV_VAR, "3")
        fleet = resolve_executor(None)
        assert isinstance(fleet, DistributedExecutor)
        assert fleet.address == LOCAL_FLEET_ADDRESS and fleet.workers == 3
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        assert isinstance(resolve_executor(None), SerialExecutor)

    @pytest.mark.parametrize("spelling", ["process", "distributed"])
    def test_dropped_spellings_are_rejected(self, spelling, monkeypatch):
        with pytest.raises(ExecutorSpecError):
            resolve_executor(spelling)
        monkeypatch.setenv(JOBS_ENV_VAR, spelling)
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        message = str(excinfo.value)
        assert f"{JOBS_ENV_VAR}={spelling}" in message
        assert SPEC_FORMS in message

    def test_resolve_takes_only_the_spec(self):
        assert list(inspect.signature(resolve_executor).parameters) == ["spec"]

    def test_malformed_env_value_names_the_variable(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "ten")
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        message = str(excinfo.value)
        # The error must say where the bad value came from and what is
        # accepted, not surface as a bare int() conversion failure.
        assert f"{JOBS_ENV_VAR}=ten" in message
        assert "tcp://HOST:PORT" in message and "'serial'" in message

    def test_negative_job_counts_are_rejected(self, monkeypatch):
        with pytest.raises(ExecutorSpecError):
            resolve_executor(-2)
        monkeypatch.setenv(JOBS_ENV_VAR, "-3")
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        assert f"{JOBS_ENV_VAR}=-3" in str(excinfo.value)

    def test_tcp_spec_resolves_to_distributed_executor(self):
        executor = resolve_executor("tcp://127.0.0.1:8765")
        assert isinstance(executor, DistributedExecutor)
        assert executor.address == "tcp://127.0.0.1:8765"
        assert executor.workers == 0  # external workers connect themselves
        fleet = resolve_executor("inproc://")
        assert isinstance(fleet, DistributedExecutor)
        assert fleet.workers == cpu_count()  # no external worker can attach

    def test_malformed_tcp_spec_is_friendly(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "tcp://nohost")
        with pytest.raises(ExecutorSpecError) as excinfo:
            resolve_executor(None)
        message = str(excinfo.value)
        assert f"{JOBS_ENV_VAR}=tcp://nohost" in message
        with pytest.raises(ExecutorSpecError):
            resolve_executor("udp://127.0.0.1:1")
        # ExecutorSpecError stays a ValueError for existing callers.
        assert issubclass(ExecutorSpecError, ValueError)


class TestParallelIdentity:
    def test_env_var_end_to_end(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV_VAR, "2")
        fleet = run_experiment("env", seeded_metrics, {"a": [1, 2], "b": [3]},
                               repetitions=2)
        monkeypatch.setenv(JOBS_ENV_VAR, "1")
        serial = run_experiment("env", seeded_metrics, {"a": [1, 2], "b": [3]},
                                repetitions=2)
        assert fleet.executor == "distributed"
        assert serial.executor == "serial"
        assert fleet.rows == serial.rows

    def test_parallel_sweep_is_faster_on_overlappable_cells(self):
        """64 wait-bound cells: the fleet overlaps them, serial cannot.

        Uses sleep-dominated cells so the speedup shows regardless of the
        number of physical cores (on >= 2 cores CPU-bound cells scale the
        same way).
        """

        grid = {"slot": list(range(16))}  # x4 reps = 64 cells, ~20ms each
        serial = run_experiment("speed", sleeping_cell, grid,
                                repetitions=4, executor="serial")
        fleet = run_experiment("speed", sleeping_cell, grid,
                               repetitions=4, executor=8)
        assert fleet.executor == "distributed"
        assert fleet.rows == serial.rows
        assert len(serial) == 64
        # Serial: >= 64 * 20ms = 1.28s.  Fleet of 8: ~8 rounds + startup.
        assert fleet.elapsed_seconds < serial.elapsed_seconds * 0.7

    def test_progress_and_timing_capture(self):
        messages = []
        streamed = []
        listener = CallbackListener(progress=messages.append, on_row=streamed.append)
        result = run_experiment("progress", seeded_metrics,
                                {"a": [1], "b": [2, 3]},
                                repetitions=2, listener=listener)
        assert len(messages) == 4
        assert streamed == result.rows
        assert len(result.cell_seconds) == 4
        assert all(elapsed >= 0.0 for elapsed in result.cell_seconds)
        # Summaries were folded while the rows streamed (no second pass).
        streamed_summary = result.summary()
        assert streamed_summary["value"].count == 4
        assert streamed_summary["value"] == result.aggregate()["value"]


class TestErrorCapture:
    def test_worker_exception_surfaces_with_failing_config(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [1, 2, 3, 4]},
                           repetitions=1, base_seed=77, executor=2)
        error = excinfo.value
        assert error.params == {"n": 3}
        assert error.seed == 77
        assert error.error_type == "ValueError"
        assert "bad cell n=3" in str(error)
        assert "worker traceback" in str(error)

    def test_serial_exception_surfaces_identically(self):
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [3]},
                           repetitions=1, executor="serial")
        assert excinfo.value.params == {"n": 3}

    def test_cell_execution_error_pickle_round_trip(self):
        """Regression: the two-argument constructor used to break unpickling.

        The default exception reduction re-calls ``cls(*args)`` with the
        formatted message, which does not match ``__init__(experiment,
        outcome)`` -- so a :class:`CellExecutionError` crossing a process or
        socket boundary (nested harness in a fleet worker, distributed
        failure reporting) blew up with a ``TypeError`` instead of
        arriving intact.
        """

        import pickle

        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [3]},
                           repetitions=1, base_seed=9, executor="serial")
        error = excinfo.value
        restored = pickle.loads(pickle.dumps(error))
        assert isinstance(restored, CellExecutionError)
        assert restored.experiment == "boom"
        assert restored.params == {"n": 3}
        assert restored.seed == 9
        assert restored.error_type == "ValueError"
        assert restored.worker_traceback == error.worker_traceback
        assert str(restored) == str(error)

    def test_cell_execution_error_json_payload_round_trip(self):
        import json

        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("boom", failing_on_three, {"n": [3]},
                           repetitions=1, executor="serial")
        error = excinfo.value
        payload = json.loads(json.dumps(error.to_payload()))
        restored = CellExecutionError.from_payload(payload)
        assert restored.params == {"n": 3}
        assert restored.error_type == "ValueError"
        assert "bad cell n=3" in restored.worker_traceback

    def test_capture_errors_records_and_continues(self):
        result = run_experiment("soft", failing_on_three, {"n": [1, 2, 3, 4]},
                                repetitions=1, capture_errors=True)
        assert len(result.rows) == 3
        assert result.column("n_squared") == [1, 4, 16]
        assert len(result.errors) == 1
        failed = result.errors[0]
        assert failed.cell.params_dict == {"n": 3}
        assert failed.error_type == "ValueError"
        assert "ValueError" in failed.error


class TestResultCache:
    def test_rerun_hits_cache_and_skips_execution(self, tmp_path):
        CALL_LOG.clear()
        cache = ResultCache(tmp_path)
        first = run_experiment("cached", counting_cell, {"x": [1, 2, 3]},
                               repetitions=2, cache=cache, executor="serial")
        assert len(CALL_LOG) == 6
        assert cache.stats.stores == 6
        assert first.cache_hits == 0

        second = run_experiment("cached", counting_cell, {"x": [1, 2, 3]},
                                repetitions=2, cache=cache, executor="serial")
        assert len(CALL_LOG) == 6  # nothing re-executed
        assert second.cache_hits == 6
        assert second.rows == first.rows

    def test_partial_cache_recomputes_only_missing_cells(self, tmp_path):
        CALL_LOG.clear()
        cache = ResultCache(tmp_path)
        run_experiment("partial", counting_cell, {"x": [1, 2]},
                       repetitions=1, cache=cache)
        assert len(CALL_LOG) == 2
        grown = run_experiment("partial", counting_cell, {"x": [1, 2, 3]},
                               repetitions=1, cache=cache)
        assert len(CALL_LOG) == 3  # only x=3 ran
        assert grown.cache_hits == 2
        assert grown.column("double") == [2, 4, 6]

    def test_different_function_does_not_reuse_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("vers", counting_cell, {"x": [1]}, repetitions=1, cache=cache)
        other = run_experiment("vers", seeded_metrics, {"a": [1], "b": [1]},
                               repetitions=1, cache=cache)
        assert other.cache_hits == 0
        assert run_fingerprint(counting_cell) != run_fingerprint(seeded_metrics)

    def test_unserialisable_metrics_are_recomputed_not_corrupted(self, tmp_path):
        cache = ResultCache(tmp_path)

        result = run_experiment("rich", _rich_object_cell, {"x": [1]},
                                repetitions=1, cache=cache)
        assert cache.stats.skipped == 1
        again = run_experiment("rich", _rich_object_cell, {"x": [1]},
                               repetitions=1, cache=cache)
        assert again.cache_hits == 0
        assert isinstance(again.rows[0]["payload"], set)
        assert result.rows[0]["payload"] == again.rows[0]["payload"]

    def test_env_var_is_the_default_cache(self, tmp_path, monkeypatch):
        CALL_LOG.clear()
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = run_experiment("env", counting_cell, {"x": [1, 2]}, repetitions=1)
        second = run_experiment("env", counting_cell, {"x": [1, 2]}, repetitions=1)
        assert len(CALL_LOG) == 2  # the second run replayed both cells
        assert (first.cache_hits, second.cache_hits) == (0, 2)
        assert second.rows == first.rows

    @pytest.mark.parametrize("value", ["", "   "])
    def test_blank_env_var_means_no_cache(self, value, monkeypatch):
        CALL_LOG.clear()
        monkeypatch.setenv("REPRO_CACHE_DIR", value)
        for _ in range(2):
            assert run_experiment("blank", counting_cell, {"x": [1]},
                                  repetitions=1).cache_hits == 0
        assert len(CALL_LOG) == 2

    def test_explicit_cache_wins_over_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        run_experiment("explicit", counting_cell, {"x": [1]}, repetitions=1,
                       cache=tmp_path / "mine")
        assert len(list((tmp_path / "mine").rglob("*.json"))) == 1
        assert not (tmp_path / "env").exists()

    def test_env_var_resumes_a_scenario(self, tmp_path, monkeypatch):
        from repro.scenarios import get, run_scenario

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec = get("fig2.bicriteria")
        first = run_scenario(spec, smoke=True, executor="serial")
        again = run_scenario(spec, smoke=True, executor="serial")
        assert first.cache_hits == 0
        assert again.cache_hits == len(again.rows) > 0
        assert again.rows == first.rows

    def test_clear_empties_the_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_experiment("clear", counting_cell, {"x": [5]}, repetitions=1, cache=cache)
        assert cache.clear() == 1
        rerun = run_experiment("clear", counting_cell, {"x": [5]},
                               repetitions=1, cache=cache)
        assert rerun.cache_hits == 0


def _rich_object_cell(seed, x):
    return {"payload": {("tuple", x)}}  # a set: not JSON-serialisable
