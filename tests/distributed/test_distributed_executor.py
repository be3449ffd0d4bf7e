"""End-to-end tests of ``DistributedExecutor``: identity, faults, resume.

The acceptance contract of the distributed runtime:

* a 64-cell sweep through 4 workers is bit-identical (rows and digests) to
  :class:`SerialExecutor`, in submission order;
* a worker SIGKILLed mid-sweep costs a retry, not the sweep;
* a journal-resumed campaign re-executes exactly the incomplete cells;
* a cell whose retry budget is exhausted by worker deaths surfaces as
  :class:`CellExecutionError` carrying the failing configuration.

Run functions live at module level; workers are forked from the test
process, so they stay picklable by reference.
"""

from __future__ import annotations

import functools
import os
import signal
import time

import numpy as np
import pytest

from repro.distributed import DistributedExecutor, Scheduler
from repro.experiments.grid import CellFunction, expand_grid
from repro.experiments.harness import CellExecutionError, run_experiment
from repro.scenarios.composer import rows_digest

GRID_4x4 = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}  # x4 reps = 64 cells

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="mini-cluster tests fork local workers",
)


def fast_executor(**kwargs):
    """A mini-cluster tuned for tests: tight heartbeats, finite stall guard."""

    defaults = dict(
        workers=4, heartbeat_interval=0.1, heartbeat_timeout=1.5, stall_timeout=30.0
    )
    defaults.update(kwargs)
    return DistributedExecutor(**defaults)


def seeded_metrics(seed, a, b):
    rng = np.random.default_rng(seed * 100_003 + a * 1009 + b)
    return {"value": float(rng.normal()), "score": float(rng.random()) * a + b}


def slow_cell(seed, slot):
    time.sleep(0.05)
    return {"slot": slot, "seed_used": seed}


def logging_cell(seed, x, log_path=""):
    # One line per actual execution; O_APPEND keeps concurrent writers safe.
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{seed},{x}\n")
    return {"y": float(x * seed)}


def worker_killing_cell(seed, n):
    if n == 3:
        os._exit(17)  # die like a crashed/preempted worker, mid-cell
    return {"n_squared": n * n}


class TestBitIdentity:
    def test_64_cells_4_workers_identical_to_serial(self):
        serial = run_experiment("identity", seeded_metrics, GRID_4x4,
                                repetitions=4, base_seed=42, executor="serial")
        distributed = run_experiment("identity", seeded_metrics, GRID_4x4,
                                     repetitions=4, base_seed=42,
                                     executor=fast_executor())
        assert len(serial) == 64
        assert distributed.rows == serial.rows  # same values, same order
        assert rows_digest(distributed.rows) == rows_digest(serial.rows)
        assert distributed.executor == "distributed"

    def test_empty_sweep_runs_without_binding_anything(self):
        result = run_experiment("empty", seeded_metrics, {"a": [], "b": [1]},
                                repetitions=2, executor=fast_executor())
        assert result.rows == []


def _wait_for(predicate, timeout=20.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.001)
    return True


def _holds_a_cell(scheduler, pid):
    """True when worker process ``pid`` holds some unfinished cell.

    A cell has one live attempt at a time, so that worker is its sole holder.
    """

    with scheduler._lock:
        campaign = scheduler._campaign
        if campaign is None:
            return False
        for worker_id, conn in scheduler._conns.items():
            if worker_id.rsplit("-", 2)[1] != str(pid):
                continue
            if any(position not in campaign.done for position in conn.assignments):
                return True
    return False


class TestWorkerLoss:
    def test_sigkilled_worker_mid_sweep_is_retried(self):
        grid = {"slot": list(range(16))}  # x4 reps = 64 cells, ~50ms each
        serial = run_experiment("kill", slow_cell, grid,
                                repetitions=4, executor="serial")
        executor = fast_executor()
        cells = expand_grid(grid, repetitions=4, base_seed=1234)
        stream = executor.map(CellFunction(slow_cell), cells)
        outcomes = []
        stats = None
        for outcome in stream:
            outcomes.append(outcome)
            if len(outcomes) == 8:
                # Kill worker 0 only once it holds an unfinished cell: that
                # cell is stranded and must be requeued.  (On a loaded host
                # worker 0 may still be between cells here.)
                stats = executor.scheduler.stats
                pid = executor.processes[0].pid
                assert _wait_for(lambda: _holds_a_cell(executor.scheduler, pid))
                os.kill(pid, signal.SIGKILL)
        assert len(outcomes) == 64
        rows = [dict(outcome.metrics) for outcome in outcomes]
        expected = [{"slot": row["slot"], "seed_used": row["seed_used"]}
                    for row in serial.rows]
        assert rows == expected
        # The SIGKILLed worker's in-flight cell went back to the queue ...
        assert stats.retries >= 1
        # ... and the babysitter replaced the dead worker, so the sweep
        # finished at full strength (no worker-lost failures).
        assert stats.worker_lost_failures == 0
        assert executor.scheduler is None  # torn down once the stream ends

    def test_retry_budget_exhaustion_surfaces_failing_config(self):
        executor = fast_executor(workers=2, max_retries=2)
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("poison", worker_killing_cell, {"n": [1, 2, 3, 4]},
                           repetitions=1, base_seed=77, executor=executor)
        error = excinfo.value
        assert error.params == {"n": 3}
        assert error.seed == 77
        assert error.error_type == "WorkerLostError"
        assert "retry budget" in str(error)

    def test_cell_leased_behind_a_worker_killer_is_not_charged(self):
        # n=4 may sit in the lease of every worker n=3 kills; only the cell
        # a worker was running when it died may spend the retry budget.
        executor = fast_executor(workers=2, max_retries=2)
        result = run_experiment("poison", worker_killing_cell, {"n": [1, 2, 3, 4]},
                                repetitions=1, base_seed=77, executor=executor,
                                capture_errors=True)
        (error,) = result.errors
        assert error.cell.params_dict == {"n": 3}
        assert error.error_type == "WorkerLostError"
        assert [row["n_squared"] for row in result.rows] == [1, 4, 16]


class TestCampaignRegistration:
    def test_campaign_is_registered_before_the_fleet_is_raised(self, monkeypatch):
        # A worker whose first request beats the campaign is told to idle and
        # sleeps IDLE_DELAY; registering first makes that impossible.
        spawn = Scheduler.spawn_local_worker
        registered = []

        def checked_spawn(scheduler, **kwargs):
            registered.append(scheduler._campaign is not None)
            return spawn(scheduler, **kwargs)

        monkeypatch.setattr(Scheduler, "spawn_local_worker", checked_spawn)
        fn = CellFunction(seeded_metrics)
        for campaign in range(20):
            cells = expand_grid({"a": [1, 2], "b": [campaign]}, repetitions=1,
                                base_seed=campaign)
            executor = DistributedExecutor("inproc://", workers=2, stall_timeout=30.0)
            outcomes = list(executor.map(fn, cells))
            assert [o.metrics for o in outcomes] == [fn(cell).metrics for cell in cells]
        assert len(registered) >= 40 and all(registered)


class TestJournalResume:
    def test_killed_campaign_resumes_re_running_only_incomplete_cells(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        grid = {"x": list(range(16))}  # x4 reps = 64 cells

        # First campaign dies after 30 completed cells (simulated by mapping
        # only the first 30 cells of the very same expansion the harness
        # would produce -- journal keys ignore the cell index, so they match).
        cells = expand_grid(grid, repetitions=4, base_seed=1234)
        first = fast_executor(workers=2, journal=str(journal))
        completed = list(first.map(CellFunction(run), cells[:30]))
        assert len(completed) == 30
        assert len(log.read_text().splitlines()) == 30
        assert len(journal.read_text().splitlines()) == 30

        # Restart: exactly the 34 incomplete cells run, nothing cached re-runs.
        second = fast_executor(workers=2, journal=str(journal))
        resumed = run_experiment("resume", run, grid, repetitions=4,
                                 base_seed=1234, executor=second)
        assert resumed.cache_hits == 30
        executions = log.read_text().splitlines()
        assert len(executions) == 30 + 34
        serial = run_experiment("resume", run, grid, repetitions=4,
                                base_seed=1234, executor="serial")
        assert resumed.rows == serial.rows

    def test_changed_run_function_invalidates_the_journal(self, tmp_path):
        journal = tmp_path / "campaign.jsonl"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        grid = {"x": [1, 2, 3]}
        run_experiment("vers", run, grid, repetitions=1,
                       executor=fast_executor(workers=2, journal=str(journal)))
        # Same journal, different run function: nothing replays.
        other = run_experiment("vers", seeded_metrics, {"a": [1], "b": [2]},
                               repetitions=1,
                               executor=fast_executor(workers=2, journal=str(journal)))
        assert other.cache_hits == 0


class TestScenarioDigests:
    @pytest.mark.parametrize("backend", ["tcp", "inproc"])
    def test_registered_scenario_smoke_digest_matches_serial(self, backend):
        from repro.scenarios import get, run_scenario

        spec = get("fig2.bicriteria")
        serial = run_scenario(spec, smoke=True, executor="serial")
        if backend == "tcp":
            executor = fast_executor(workers=2)
        else:
            executor = DistributedExecutor("inproc://", workers=4, stall_timeout=30.0)
        # Stealing is always on -- the digest must not depend on which
        # worker ends up running a cell.
        distributed = run_scenario(spec, smoke=True, executor=executor)
        assert rows_digest(distributed.rows) == rows_digest(serial.rows)
