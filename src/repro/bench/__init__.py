"""The timing guard of the end-to-end benchmark.

``perfbench/`` is the only timing harness of this repository; it imports
:func:`repro.bench.runner.assert_unperturbed_timing` to refuse timed runs
while an observation switch would inflate them.  The result digests of the
paper artefacts live in the golden suite (:mod:`repro.runtime.golden`).
"""
