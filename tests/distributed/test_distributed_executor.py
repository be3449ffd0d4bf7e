"""End-to-end tests of ``DistributedExecutor``: identity, faults, resume.

The acceptance contract of the distributed runtime:

* a 64-cell sweep through 4 workers is bit-identical (rows and digests) to
  :class:`SerialExecutor`, in submission order;
* a worker SIGKILLed mid-sweep costs a retry, not the sweep;
* a campaign killed part-way resumes from the harness cell cache,
  re-executing exactly the incomplete cells -- also when it was killed
  under one executor and resumes under another;
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
from tests.distributed.resume import KillAfterRows, KilledCampaign
from tests.distributed.timings import fast_timings

GRID_4x4 = {"a": [1, 2, 3, 4], "b": [10, 20, 30, 40]}  # x4 reps = 64 cells

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="mini-cluster tests fork local workers",
)


@pytest.fixture(autouse=True)
def finite_stall_guard(monkeypatch):
    """Every campaign here gives up after 30 s without a worker."""

    fast_timings(monkeypatch, stall_timeout=30.0)


def fast_executor(monkeypatch, workers=4):
    """A ``tcp://`` mini-cluster tuned for tests: tight heartbeats."""

    fast_timings(monkeypatch, heartbeat_interval=0.1, heartbeat_timeout=1.5)
    return DistributedExecutor(workers=workers)


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


def other_logging_cell(seed, x, log_path=""):
    # Same parameters, different source: a different run fingerprint.
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{seed},{x}\n")
    return {"y": float(x + seed)}


def executions(log):
    return len(log.read_text().splitlines())


def worker_killing_cell(seed, n):
    if n == 3:
        os._exit(17)  # die like a crashed/preempted worker, mid-cell
    return {"n_squared": n * n}


class TestBitIdentity:
    def test_64_cells_4_workers_identical_to_serial(self, monkeypatch):
        serial = run_experiment("identity", seeded_metrics, GRID_4x4,
                                repetitions=4, base_seed=42, executor="serial")
        distributed = run_experiment("identity", seeded_metrics, GRID_4x4,
                                     repetitions=4, base_seed=42,
                                     executor=fast_executor(monkeypatch))
        assert len(serial) == 64
        assert distributed.rows == serial.rows  # same values, same order
        assert rows_digest(distributed.rows) == rows_digest(serial.rows)
        assert distributed.executor == "distributed"

    def test_empty_sweep_runs_without_binding_anything(self, monkeypatch):
        result = run_experiment("empty", seeded_metrics, {"a": [], "b": [1]},
                                repetitions=2, executor=fast_executor(monkeypatch))
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
    def test_sigkilled_worker_mid_sweep_is_retried(self, monkeypatch):
        grid = {"slot": list(range(16))}  # x4 reps = 64 cells, ~50ms each
        serial = run_experiment("kill", slow_cell, grid,
                                repetitions=4, executor="serial")
        executor = fast_executor(monkeypatch)
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

    def test_retry_budget_exhaustion_surfaces_failing_config(self, monkeypatch):
        executor = fast_executor(monkeypatch, workers=2)
        fast_timings(monkeypatch, max_retries=2)
        with pytest.raises(CellExecutionError) as excinfo:
            run_experiment("poison", worker_killing_cell, {"n": [1, 2, 3, 4]},
                           repetitions=1, base_seed=77, executor=executor)
        error = excinfo.value
        assert error.params == {"n": 3}
        assert error.seed == 77
        assert error.error_type == "WorkerLostError"
        assert "retry budget" in str(error)

    def test_cell_leased_behind_a_worker_killer_is_not_charged(self, monkeypatch):
        # n=4 may sit in the lease of every worker n=3 kills; only the cell
        # a worker was running when it died may spend the retry budget.
        executor = fast_executor(monkeypatch, workers=2)
        fast_timings(monkeypatch, max_retries=2)
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
            executor = DistributedExecutor("inproc://", workers=2)
            outcomes = list(executor.map(fn, cells))
            assert [o.metrics for o in outcomes] == [fn(cell).metrics for cell in cells]
        assert len(registered) >= 40 and all(registered)


class TestCacheResume:
    def test_killed_campaign_resumes_re_running_only_incomplete_cells(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        grid = {"x": list(range(16))}  # x4 reps = 64 cells

        # The first campaign dies after 30 completed cells.  The fleet may
        # have run cells past the 30th; only the 30 streamed ones are cached.
        with pytest.raises(KilledCampaign):
            run_experiment("resume", run, grid, repetitions=4, base_seed=1234,
                           executor=fast_executor(monkeypatch, workers=2), cache=cache,
                           listener=KillAfterRows(30))
        assert len(list(cache.rglob("*.json"))) == 30
        before = executions(log)
        assert before >= 30

        # Restart on a tcp:// fleet: exactly the 34 uncached cells run.
        resumed = run_experiment("resume", run, grid, repetitions=4, base_seed=1234,
                                 executor=fast_executor(monkeypatch, workers=2), cache=cache)
        assert resumed.cache_hits == 30
        assert executions(log) - before == 34
        serial = run_experiment("resume", run, grid, repetitions=4,
                                base_seed=1234, executor="serial")
        assert resumed.rows == serial.rows

    def test_changed_run_function_replays_nothing(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        log = tmp_path / "executions.log"
        log.touch()
        grid = {"x": [1, 2, 3]}
        run_experiment("vers", functools.partial(logging_cell, log_path=str(log)), grid,
                       repetitions=1, executor=fast_executor(monkeypatch, workers=2), cache=cache)
        # Same cache, same experiment and grid, different run function.
        other = run_experiment("vers", functools.partial(other_logging_cell, log_path=str(log)),
                               grid, repetitions=1, executor=fast_executor(monkeypatch, workers=2),
                               cache=cache)
        assert other.cache_hits == 0
        assert executions(log) == 6


class TestCrossExecutorResume:
    """The cache is keyed by the cell and the run function, never the executor."""

    @pytest.mark.parametrize("first, second", [
        ("serial", "inproc"), ("inproc", "serial"),
    ])
    def test_campaign_killed_under_one_executor_resumes_under_another(
        self, tmp_path, first, second
    ):
        cache = tmp_path / "cache"
        log = tmp_path / "executions.log"
        log.touch()
        run = functools.partial(logging_cell, log_path=str(log))
        grid = {"x": list(range(8))}  # x2 reps = 16 cells
        backends = {
            "serial": lambda: "serial",
            "inproc": lambda: DistributedExecutor("inproc://", workers=4),
        }

        with pytest.raises(KilledCampaign):
            run_experiment("cross", run, grid, repetitions=2, executor=backends[first](),
                           cache=cache, listener=KillAfterRows(5))
        before = executions(log)

        executor = backends[second]()
        resumed = run_experiment("cross", run, grid, repetitions=2, executor=executor,
                                 cache=cache)
        assert resumed.cache_hits == 5
        assert executions(log) - before == 11
        if second == "inproc":
            assert executor.last_stats.results == 11
        serial = run_experiment("cross", run, grid, repetitions=2, executor="serial")
        assert resumed.rows == serial.rows


class TestScenarioDigests:
    @pytest.mark.parametrize("backend", ["tcp", "inproc"])
    def test_registered_scenario_smoke_digest_matches_serial(self, backend, monkeypatch):
        from repro.scenarios import get, run_scenario

        spec = get("fig2.bicriteria")
        serial = run_scenario(spec, smoke=True, executor="serial")
        if backend == "tcp":
            executor = fast_executor(monkeypatch, workers=2)
        else:
            executor = DistributedExecutor("inproc://", workers=4)
        # Stealing is always on -- the digest must not depend on which
        # worker ends up running a cell.
        distributed = run_scenario(spec, smoke=True, executor=executor)
        assert rows_digest(distributed.rows) == rows_digest(serial.rows)


def _fleet_cell(seed, x):
    return {"y": float(x * 7 + seed % 11)}


class TestOneFleetPerExecutor:
    """The scheduler and fleet outlive a campaign; ``close`` ends them."""

    def test_one_fleet_serves_five_consecutive_maps(self, monkeypatch):
        executor = fast_executor(monkeypatch, workers=2)
        with executor:
            pids = None
            for campaign in range(5):
                grid = {"x": list(range(campaign * 3, campaign * 3 + 6))}
                serial = run_experiment("fleet", _fleet_cell, grid, repetitions=2,
                                        base_seed=campaign, executor="serial")
                result = run_experiment("fleet", _fleet_cell, grid, repetitions=2,
                                        base_seed=campaign, executor=executor)
                assert result.rows == serial.rows
                current = [process.pid for process in executor.processes]
                assert len(current) == 2
                assert pids is None or current == pids  # nothing was re-forked
                pids = current
            assert executor.stats.workers_joined == 2
            assert executor.stats.results == 5 * 12
        assert executor.processes == []

    def test_last_stats_counts_only_its_own_campaign(self):
        fn = CellFunction(_fleet_cell)
        with DistributedExecutor("inproc://", workers=2) as executor:
            for size in (4, 7, 3):
                cells = expand_grid({"x": list(range(size))}, repetitions=1)
                assert len(list(executor.map(fn, cells))) == size
                assert executor.last_stats.results == size
                assert executor.last_stats.duplicates == 0
            assert executor.stats.results == 14

    def test_a_second_map_while_one_streams_is_refused(self):
        fn = CellFunction(_fleet_cell)
        cells = expand_grid({"x": [1, 2, 3]}, repetitions=1)
        with DistributedExecutor("inproc://", workers=1) as executor:
            stream = executor.map(fn, cells)
            next(stream)
            with pytest.raises(RuntimeError, match="still streaming"):
                executor.map(fn, cells)
            stream.close()
            assert [o.metrics for o in executor.map(fn, cells)] == [fn(c).metrics for c in cells]

    @pytest.mark.parametrize("address", ["tcp://127.0.0.1:0", "inproc://"])
    def test_an_idle_fleet_serves_the_next_map_at_full_size(self, address, monkeypatch):
        # Parked requests are answered idle after half the reply timeout,
        # so the workers self-reap after max_idle; the next map raises them
        # again without spending the crash-respawn budget.
        fast_timings(monkeypatch, worker_max_idle=0.5, reply_timeout=2.0)
        fn = CellFunction(_fleet_cell)
        cells = expand_grid({"x": list(range(8))}, repetitions=1)
        expected = [fn(cell).metrics for cell in cells]
        with DistributedExecutor(address, workers=2) as executor:
            assert [o.metrics for o in executor.map(fn, cells)] == expected
            fleet = executor._fleet
            budget = fleet.respawns_left
            assert _wait_for(lambda: not any(fleet._alive(h) for h in fleet.handles))
            assert not any(fleet._crashed(handle) for handle in fleet.handles)
            assert [o.metrics for o in executor.map(fn, cells)] == expected
            # Two fresh workers joined for the second map (a loaded host may
            # reap and replace one more mid-campaign), and none was charged.
            assert executor.last_stats.workers_joined >= 2
            assert len(fleet.handles) == 2
            assert fleet.respawns_left == budget

    def test_run_experiment_closes_the_fleet_it_resolved(self):
        import multiprocessing

        before = set(multiprocessing.active_children())
        result = run_experiment("owned", _fleet_cell, {"x": [1, 2, 3, 4]},
                                repetitions=2, executor=2)
        assert len(result.rows) == 8
        assert set(multiprocessing.active_children()) - before == set()

    def test_an_unclosed_tcp_fleet_exits_with_its_process(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        script = tmp_path / "unclosed.py"
        script.write_text(
            "from repro.distributed import DistributedExecutor\n"
            "from repro.experiments.grid import CellFunction, expand_grid\n"
            "def cell(seed, x):\n"
            "    return {'y': x}\n"
            "executor = DistributedExecutor(workers=2)\n"
            "cells = expand_grid({'x': [1, 2, 3]}, repetitions=1)\n"
            "assert len(list(executor.map(CellFunction(cell), cells))) == 3\n"
            "print(' '.join(str(p.pid) for p in executor.processes), flush=True)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        started = time.monotonic()
        done = subprocess.run([sys.executable, str(script)], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert time.monotonic() - started < 15.0
        pids = [int(pid) for pid in done.stdout.split()]
        assert len(pids) == 2

        def live(pid):
            try:
                state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                return False
            return state != "Z"

        assert _wait_for(lambda: not any(live(pid) for pid in pids), timeout=5.0)
