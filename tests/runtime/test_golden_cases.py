"""Properties of the golden cases and the golden capture CLI.

``test_equivalence.py`` checks each case against its pinned digest; these
tests check what a digest alone cannot: that every case is pinned, that a
case answers the same when re-run in one process, that the paper-artefact
payloads describe complete runs, and that ``capture`` writes what it says.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.runtime import golden

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text())


def test_every_simulator_case_is_pinned():
    # The equivalence test is parametrized over the golden file, so a case
    # registered without a golden would silently go unchecked.
    assert set(golden.SIMULATOR_CASES) == set(GOLDENS["simulators"])


@pytest.mark.parametrize("name", sorted(golden.SIMULATOR_CASES))
def test_simulator_case_is_deterministic_within_one_process(name):
    case = golden.SIMULATOR_CASES[name]
    first = golden.digest_of(case())
    assert golden.digest_of(case()) == first, (
        f"simulator case {name!r} changed its answer on a re-run: state leaks "
        f"between runs"
    )


def test_figure2_case_ignores_the_jobs_environment(monkeypatch):
    # An unresolvable REPRO_JOBS would fail any run that consults it; the
    # case pins the serial executor, so it must not even look.
    monkeypatch.setenv("REPRO_JOBS", "not-an-executor")
    digest = golden.digest_of(golden.run_figure2_case())
    assert digest == GOLDENS["simulators"]["cluster.figure2"]


def test_kernel_churn_fires_every_chain_step_and_no_decoy():
    payload = golden.run_kernel_churn_case()
    chains, steps = 64, 60_000 // 64
    # A fired decoy raises inside the run, so reaching here means none fired.
    assert payload["fired"] == chains * steps
    assert len(payload["checksum"]) == payload["fired"] // 97
    times = [float(v) for v in payload["checksum"]]
    assert times == sorted(times)
    assert float(payload["now"]) >= times[-1]


def test_dlt_multiround_case_distributes_the_whole_load():
    payload = golden.run_dlt_multiround_case()
    assert 1 <= payload["rounds"] <= 12
    assert len(payload["round_loads"]) == payload["rounds"]
    loads = [float(v) for v in payload["round_loads"]]
    assert all(load > 0 for load in loads)
    assert sum(loads) == pytest.approx(500.0)
    assert float(payload["makespan"]) > 0


def test_digest_of_is_canonical_json_sha256():
    class Opaque:
        def __repr__(self):
            return "Opaque()"

    payload = {"b": [1, 2.5], "a": Opaque()}
    blob = json.dumps({"a": "Opaque()", "b": [1, 2.5]}, sort_keys=True)
    assert golden.digest_of(payload) == hashlib.sha256(blob.encode()).hexdigest()
    assert golden.digest_of({"a": Opaque(), "b": [1, 2.5]}) == golden.digest_of(payload)
    assert golden.digest_of({"b": [2.5, 1], "a": Opaque()}) != golden.digest_of(payload)


def test_cli_without_capture_prints_usage(capsys):
    assert golden.main([]) == 2
    assert golden.main(["recompute"]) == 2
    assert "usage: python -m repro.runtime.golden capture" in capsys.readouterr().err


def test_cli_capture_writes_the_sorted_payload(tmp_path, monkeypatch, capsys):
    payload = {
        "simulators": {"b-case": "22", "a-case": "11"},
        "scenarios": {"one.scenario": "33"},
    }
    monkeypatch.setattr(golden, "capture", lambda: payload)
    path = tmp_path / "nested" / "goldens.json"

    assert golden.main(["capture", str(path)]) == 0
    text = path.read_text()
    assert json.loads(text) == payload
    assert text == json.dumps(payload, indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out.strip() == f"wrote 3 golden digests to {path}"
