"""The serial sweep path stays import-light.

Parallel execution lives in :mod:`repro.distributed` and is imported only
when an executor spec asks for it, so composing and running a scenario
serially never loads ``multiprocessing`` or the socket machinery.
"""

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

PROBE = """
import sys
import repro.scenarios.composer, repro.experiments.harness
print(",".join(sorted(
    name for name in sys.modules
    if name.split(".")[0] == "multiprocessing" or name.startswith("repro.distributed")
)))
"""


def test_serial_path_imports_neither_multiprocessing_nor_distributed():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    probe = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, check=True, env=env
    )
    assert probe.stdout.strip() == ""
