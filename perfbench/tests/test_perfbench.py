"""Tests of the scenario benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import ast
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from measure import check_step, measure, normalised_rate  # noqa: E402
from workloads import WORKLOADS, StepOutcome, Workload  # noqa: E402

WORK = ROOT / ".perfbench-work" / "tests"


@pytest.fixture
def work_dir(request):
    path = WORK / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_reference_slice_imports_nothing_from_repro():
    tree = ast.parse((BENCH / "refslice.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
    assert not [name for name in imported if name.split(".")[0] == "repro"]
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import refslice; "
        "refslice.ReferenceSlice(1024).run(); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'repro'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe, str(BENCH)], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


def test_uniform_slowdown_leaves_the_normalised_rate_unchanged():
    steps = [0.21, 0.05, 0.33, 0.12]
    slices = [0.026, 0.024, 0.031, 0.025]
    base = normalised_rate(100, steps, slices)
    slow = normalised_rate(100, [1.6 * s for s in steps], [1.6 * s for s in slices])
    assert slow == pytest.approx(base, rel=1e-12)
    # Raw time alone would have read 1.6x slower.
    assert normalised_rate(100, [1.6 * s for s in steps], slices) == pytest.approx(base / 1.6)


def test_a_digest_mismatch_fails_every_cell_of_the_step():
    problems = []
    outcome = StepOutcome(digest="a" * 64, cells=9, errors=0)
    assert check_step("unit", outcome, "a" * 64, problems) == 0
    assert problems == []
    assert check_step("unit", outcome, "b" * 64, problems) == 9
    assert len(problems) == 1 and "digest" in problems[0]


def test_a_digest_mismatch_with_the_recorded_digests_is_counted(work_dir):
    bench = Workload("cluster-online", 1, tiny=True)
    recorded = {unit.label: "0" * 64 for unit in bench.units}
    result = measure(bench, 0.0, work_dir, recorded, min_passes=1)
    assert result.cells_failed == result.cells_attempted > 0
    assert len(result.problems) == len(bench.units)


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_tiny_pass_of_each_workload_completes_in_seconds(name, work_dir):
    began = time.perf_counter()
    result = measure(Workload(name, 1, tiny=True), 0.0, work_dir, min_passes=1)
    assert time.perf_counter() - began < 30.0
    assert result.problems == []
    assert result.cells_failed == 0 and result.cells_attempted > 0
    assert result.cells_per_s_norm > 0


def test_the_default_seed_reproduces_the_registered_seeds():
    from repro.scenarios import registry

    for name in WORKLOADS:
        for unit in Workload(name).units:
            if unit.label.endswith("#0"):
                assert unit.spec.seed == registry.get(unit.spec.name).seed


def test_timed_run_prints_every_end_to_end_metric(work_dir):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "offline-batch", "--seed", "1",
         "--seconds", "0", "--trace", "0", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert report["correct"] and report["failed"] == 0
    assert set(report["metrics"]) == {metric["name"] for metric in manifest["end_to_end"]}
    assert all(metric["value"] > 0 for metric in report["metrics"].values())
    # Three timed passes plus the peak-RSS child's pass, all of the same
    # cells and all checked.
    assert "peak-RSS pass" not in done.stdout
    assert report["attempted"] % 4 == 0


def test_traced_run_prints_every_per_layer_metric(work_dir):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "campaign-inproc", "--seed", "1",
         "--seconds", "0", "--trace", "1", "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    report = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] and report["failed"] == 0
    assert set(report["metrics"]) == {metric["name"] for metric in manifest["per_layer"]}
    assert report["metrics"]["store.rows_appended"]["value"] > 0


def test_without_the_program_the_command_fails_and_prints_no_result(work_dir):
    bare = work_dir / "bare"
    shutil.copytree(BENCH, bare / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
