"""The traced run: spans around each layer's public entry points, a cProfile
fold by module, and the per-layer metrics both give.

Nothing here touches the program's source.  For the span passes the
benchmark swaps wrappers in for the public entry points of each layer (the
names a user imports) and swaps the originals back afterwards; each wrapper
records ``[layer, start, end, parent]`` in memory.  A span's self time is its
duration minus that of its direct children in the same thread.

The profile pass runs the same steps under ``cProfile`` -- one profiler per
thread, so the cells an ``inproc://`` fleet runs on its own threads are seen
-- and folds self time by ``repro`` module into layers.  Time in C builtins
is charged to the layer of the Python function that called them, except
blocking waits (locks, selectors, sleeps), which get a ``wait`` layer.

Untraced passes alternate with span passes, so ``trace.overhead`` compares
the same steps at the same moment.
"""

from __future__ import annotations

import cProfile
import functools
import importlib
import json
import pkgutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from measure import run_pass, warm_up
from workloads import Workload

# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

#: Span layers and their metric names.
SPAN_LAYERS = (
    "workload", "simulation", "core.schedule", "core.validate", "metrics",
    "store.write", "store.read",
)


class SpanRecorder:
    """In-memory spans: ``[layer, start, end, parent-record-or-None]``."""

    def __init__(self) -> None:
        self.records: List[list] = []
        self.jobs = 0
        self.events = 0
        self.dispatch_wait = 0.0
        self.dispatch_cell_seconds = 0.0
        self.dispatched = 0
        self._local = threading.local()

    def wrap(self, layer: str, fn: Callable, *, count_jobs: bool = False) -> Callable:
        records, local = self.records, self._local

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            record = [layer, 0.0, 0.0, stack[-1] if stack else None]
            records.append(record)
            stack.append(record)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if count_jobs and (record[3] is None or record[3][0] != "workload"):
                self.jobs += len(result)
            return result

        return wrapper

    def count_events(self, run: Callable) -> Callable:
        @functools.wraps(run)
        def wrapper(simulator: Any, *args: Any, **kwargs: Any) -> Any:
            before = simulator.processed_events
            try:
                return run(simulator, *args, **kwargs)
            finally:
                self.events += simulator.processed_events - before

        return wrapper

    def time_dispatch(self, map_: Callable) -> Callable:
        """Time how long the harness blocks on the executor for each outcome."""

        @functools.wraps(map_)
        def wrapper(executor: Any, fn: Any, cells: Any) -> Any:
            stream = map_(executor, fn, cells)

            def timed() -> Any:
                try:
                    while True:
                        began = time.perf_counter()
                        try:
                            outcome = next(stream)
                        except StopIteration:
                            return
                        self.dispatch_wait += time.perf_counter() - began
                        self.dispatch_cell_seconds += outcome.elapsed_seconds
                        self.dispatched += 1
                        yield outcome
                finally:
                    stream.close()

            return timed()

        return wrapper

    def self_times(self) -> Dict[str, Tuple[float, int]]:
        """``layer -> (self seconds, spans)`` over every recorded span."""

        children: Dict[int, float] = {}
        for _layer, start, end, parent in self.records:
            if parent is not None:
                children[id(parent)] = children.get(id(parent), 0.0) + (end - start)
        out: Dict[str, Tuple[float, int]] = {}
        for record in self.records:
            layer, start, end, _parent = record
            own = (end - start) - children.get(id(record), 0.0)
            seconds, calls = out.get(layer, (0.0, 0))
            out[layer] = (seconds + own, calls + 1)
        return out

    def dump(self, path: Path) -> None:
        """Write every span out once, parents as indices into the list."""

        index = {id(record): i for i, record in enumerate(self.records)}
        spans = [
            {"name": layer, "start": start, "end": end,
             "parent": index.get(id(parent)) if parent is not None else None}
            for layer, start, end, parent in self.records
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(spans) + "\n")


class Patches:
    """Swap wrappers in for functions and methods; :meth:`restore` undoes all."""

    def __init__(self) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []

    def method(self, cls: type, name: str, make: Callable[[Callable], Callable]) -> None:
        raw = cls.__dict__[name]
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        setattr(cls, name, new)
        self._undo.append((cls, name, raw))

    def function(self, module: Any, name: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``module.name`` and every ``repro`` module global bound to it."""

        original = getattr(module, name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))

    def restore(self) -> None:
        while self._undo:
            target, name, value = self._undo.pop()
            setattr(target, name, value)


def install(recorder: SpanRecorder, patches: Patches) -> None:
    """Wrap the public entry points of every layer the benchmark reports."""

    from repro.core import policies
    from repro.core.allocation import Schedule
    from repro.core.criteria import CriteriaReport
    from repro.distributed.executor import DistributedExecutor
    from repro.experiments import figure2
    from repro.metrics import ratios
    from repro.scenarios import composer
    from repro.simulation import engine
    from repro.simulation.cluster_sim import ClusterSimulator
    from repro.simulation.decentralized import DecentralizedGridSimulator
    from repro.simulation.grid_sim import CentralizedGridSimulator
    from repro.store import queries, validate
    from repro.store.columnar import CampaignStore
    from repro.workload import communities, models

    wrap = recorder.wrap
    jobs = functools.partial(wrap, count_jobs=True)
    for module, name, make in (
        (composer, "build_platform", functools.partial(wrap, "workload")),
        (composer, "build_jobs", functools.partial(jobs, "workload")),
        (composer, "apply_arrival", functools.partial(wrap, "workload")),
        (communities, "community_workload", functools.partial(jobs, "workload")),
        (communities, "grid_workload", functools.partial(jobs, "workload")),
        (models, "figure2_workload", functools.partial(jobs, "workload")),
        (figure2, "run_figure2_point", functools.partial(wrap, "core.schedule")),
        (ratios, "schedule_ratios", functools.partial(wrap, "metrics")),
        (queries, "run_query", functools.partial(wrap, "store.read")),
        (validate, "validate_store", functools.partial(wrap, "store.read")),
    ):
        patches.function(module, name, make)
    for cls in (ClusterSimulator, CentralizedGridSimulator, DecentralizedGridSimulator):
        patches.method(cls, "run", functools.partial(wrap, "simulation"))
    for cls in vars(engine).values():
        if isinstance(cls, type) and issubclass(cls, engine.Simulator) and "run" in cls.__dict__:
            patches.method(cls, "run", recorder.count_events)
    for module_info in pkgutil.iter_modules(policies.__path__):
        module = importlib.import_module(f"{policies.__name__}.{module_info.name}")
        for cls in list(vars(module).values()):
            if not isinstance(cls, type) or cls.__module__ != module.__name__:
                continue
            method = cls.__dict__.get("schedule")
            if callable(method) and not getattr(method, "__isabstractmethod__", False):
                patches.method(cls, "schedule", functools.partial(wrap, "core.schedule"))
    patches.method(Schedule, "validate", functools.partial(wrap, "core.validate"))
    patches.method(CriteriaReport, "from_schedule", functools.partial(wrap, "metrics"))
    for name in ("write", "flush"):
        patches.method(CampaignStore, name, functools.partial(wrap, "store.write"))
    patches.method(CampaignStore, "records", functools.partial(wrap, "store.read"))
    patches.method(DistributedExecutor, "map", recorder.time_dispatch)


# ---------------------------------------------------------------------------
# cProfile fold by module
# ---------------------------------------------------------------------------

#: ``repro``-relative path prefix -> layer; the first match wins.
MODULE_LAYERS = (
    ("workload/", "workload"),
    ("platform/", "workload"),
    ("simulation/engine.py", "kernel"),
    ("simulation/events.py", "kernel"),
    ("simulation/kernel.py", "kernel"),
    ("simulation/resources.py", "kernel"),
    ("simulation/tracing.py", "trace"),
    ("runtime/record.py", "trace"),
    ("simulation/", "simulators"),
    ("runtime/hooks.py", "hooks"),
    ("runtime/", "runtime"),
    ("core/policies/", "policies"),
    ("core/", "core"),
    ("metrics/", "metrics"),
    ("experiments/", "experiments"),
    ("scenarios/", "scenarios"),
    ("distributed/", "distributed"),
    ("store/", "store"),
    ("telemetry/", "telemetry"),
)
MODULE_LAYER_NAMES = tuple(dict.fromkeys(layer for _prefix, layer in MODULE_LAYERS)) + (
    "wait", "other",
)
#: C builtins that block the calling thread rather than compute.
WAITS = ("acquire", "poll", "select", "sleep", "'wait'")


def module_layer(code: Any) -> str:
    if isinstance(code, str):
        if "_ckernel" in code:
            return "kernel"
        return "wait" if any(name in code for name in WAITS) else "other"
    path = code.co_filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return "other"
    relative = path[marker + len("/repro/"):]
    for prefix, layer in MODULE_LAYERS:
        if relative.startswith(prefix):
            return layer
    return "other"


class ThreadProfiles:
    """cProfile on this thread and on every thread started while active."""

    def __init__(self) -> None:
        self.profiles: List[cProfile.Profile] = []

    def _start_thread(self, frame: Any, event: str, arg: Any) -> None:
        sys.setprofile(None)
        profile = cProfile.Profile()
        self.profiles.append(profile)
        profile.enable()

    def __enter__(self) -> "ThreadProfiles":
        main = cProfile.Profile()
        self.profiles.append(main)
        threading.setprofile(self._start_thread)
        main.enable()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.profiles[0].disable()
        threading.setprofile(None)

    def fold(self) -> Tuple[Dict[str, float], Dict[str, int], float]:
        """``(self seconds by layer, Python calls by layer, total seconds)``."""

        seconds: Dict[str, float] = {}
        calls: Dict[str, int] = {}
        total = 0.0
        for profile in self.profiles:
            for entry in profile.getstats():
                total += entry.inlinetime
                if isinstance(entry.code, str):
                    continue  # charged to its callers below
                layer = module_layer(entry.code)
                seconds[layer] = seconds.get(layer, 0.0) + entry.inlinetime
                calls[layer] = calls.get(layer, 0) + entry.callcount
                for sub in entry.calls or ():
                    if isinstance(sub.code, str):
                        charged = module_layer(sub.code)
                        if charged == "other":
                            charged = layer
                        seconds[charged] = seconds.get(charged, 0.0) + sub.inlinetime
        seconds["other"] = seconds.get("other", 0.0) + max(total - sum(seconds.values()), 0.0)
        return seconds, calls, total


# ---------------------------------------------------------------------------
# The traced run
# ---------------------------------------------------------------------------


class TracedRun:
    """Alternating untraced and span passes, then one profile pass."""

    def __init__(self, workload: Workload, work_dir: Path,
                 recorded: Optional[Dict[str, str]]) -> None:
        self.workload = workload
        self.work_dir = work_dir
        self.executor = workload.executor()
        self.problems: List[str] = []
        self.expected, self.failed = warm_up(
            workload, self.executor, work_dir, recorded, self.problems
        )
        self.attempted = 0
        self.recorder = SpanRecorder()
        self.sched: Dict[str, int] = {}
        self.store: Dict[str, int] = {}
        self.harness_overhead = 0.0
        self.harness_cells = 0

    def run_pass(self, *, observe: bool = False) -> float:
        """One checked pass; returns its wall time."""

        done = run_pass(
            self.workload, self.executor, self.work_dir / "traced", self.expected, self.problems
        )
        self.attempted += done.cells
        self.failed += done.failed
        if observe:
            for outcome in done.outcomes:
                self.harness_overhead += outcome.overhead_s
                self.harness_cells += outcome.cells
                for name, value in outcome.scheduler.items():
                    self.sched[name] = self.sched.get(name, 0) + value
                if outcome.store is not None:
                    stats = outcome.store.stats
                    self.store["parts_written"] = self.store.get("parts_written", 0) + stats.parts_written
                    self.store["rows_appended"] = self.store.get("rows_appended", 0) + stats.appended
        return sum(done.step_seconds)

    def run(self, seconds: float, spans_path: Path) -> Dict[str, float]:
        plain: List[float] = []
        traced: List[float] = []
        start = time.perf_counter()
        while len(traced) < 2 or time.perf_counter() - start < seconds:
            plain.append(self.run_pass(observe=True))
            patches = Patches()
            try:
                install(self.recorder, patches)
                traced.append(self.run_pass())
            finally:
                patches.restore()
        with ThreadProfiles() as profiles:
            profiled = self.run_pass()
        self.recorder.dump(spans_path)
        return self.metrics(plain, traced, profiled, profiles)

    def metrics(self, plain: List[float], traced: List[float], profiled: float,
                profiles: ThreadProfiles) -> Dict[str, float]:
        n_plain, n_traced = len(plain), len(traced)
        traced_wall = sum(traced)
        out: Dict[str, float] = {}
        spans = self.recorder.self_times()
        for layer in SPAN_LAYERS:
            seconds, calls = spans.get(layer, (0.0, 0))
            out[f"span.{layer}.self_share"] = seconds / traced_wall
            out[f"span.{layer}.calls"] = calls // n_traced
        out["workload.jobs"] = self.recorder.jobs // n_traced
        out["simulation.events"] = self.recorder.events // n_traced
        mod_seconds, mod_calls, total = profiles.fold()
        for layer in MODULE_LAYER_NAMES:
            out[f"mod.{layer}.self_share"] = mod_seconds.get(layer, 0.0) / total
            if layer not in ("wait", "other"):
                out[f"mod.{layer}.calls"] = mod_calls.get(layer, 0)
        cells = max(self.harness_cells, 1)
        out["experiments.overhead_ms_per_cell"] = 1e3 * self.harness_overhead / cells
        recorder = self.recorder
        out["distributed.dispatch_ms_per_cell"] = (
            1e3 * (recorder.dispatch_wait - recorder.dispatch_cell_seconds) / recorder.dispatched
            if recorder.dispatched else 0.0
        )
        useful = self.sched.get("results", 0)
        out["distributed.executions_per_cell"] = (
            (useful + self.sched.get("duplicates", 0) + self.sched.get("retries", 0)) / useful
            if useful else 0.0
        )
        for name in ("steals", "speculations", "retries"):
            out[f"distributed.{name}"] = self.sched.get(name, 0) // n_plain
        for name in ("parts_written", "rows_appended"):
            out[f"store.{name}"] = self.store.get(name, 0) // n_plain
        out["trace.overhead"] = traced_wall / sum(plain)
        out["profile.overhead"] = profiled / statistics.median(plain)
        return out


def where_the_time_goes(metrics: Dict[str, float]) -> List[str]:
    """Markdown rows of the module fold, largest share first."""

    shares = sorted(
        ((metrics[f"mod.{layer}.self_share"], layer) for layer in MODULE_LAYER_NAMES),
        reverse=True,
    )
    rows = ["| layer | self share | calls |", "|---|---|---|"]
    for share, layer in shares:
        calls = metrics.get(f"mod.{layer}.calls")
        rows.append(f"| {layer} | {100 * share:.1f}% | {'' if calls is None else f'{calls:,}'} |")
    return rows
