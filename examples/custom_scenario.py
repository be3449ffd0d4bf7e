#!/usr/bin/env python3
"""Define, register and run a custom scenario -- all as data.

Workflow demonstrated here (the same one CONTRIBUTING.md asks for when a
new workload lands in the repository):

1. author a :class:`ScenarioSpec` as TOML (``examples/scenarios/*.toml``)
   -- or build it in Python; specs round-trip between the two;
2. register it, which validates the structure and makes it visible to the
   CLI and the CI smoke job;
3. run it through :func:`run_scenario`: the sweep inherits the parallel
   path (``REPRO_JOBS=N`` runs it on a forked fleet of ``N`` workers), the
   on-disk cell cache (``REPRO_CACHE_DIR``) and deterministic seeding from
   the experiment harness.

Run with:  python examples/custom_scenario.py
"""

from __future__ import annotations

from pathlib import Path

from repro.experiments.reporting import ascii_table
from repro.scenarios import ScenarioSpec, register, run_scenario, rows_digest, unregister

SPEC_FILE = Path(__file__).parent / "scenarios" / "weekend_surge.toml"


def main() -> None:
    # 1. A spec is pure data: TOML in, TOML out.
    spec = ScenarioSpec.from_toml(SPEC_FILE.read_text())
    assert ScenarioSpec.from_toml(spec.to_toml()).to_dict() == spec.to_dict()
    print(f"loaded {spec.name!r} from {SPEC_FILE.name}: {spec.description}")

    # 2. Registering makes it enumerable (CLI list/run --all, CI smoke, bench).
    register(spec)

    # 3. Smoke tier first (what CI runs), then the full sweep.
    smoke = run_scenario(spec, smoke=True)
    print(f"smoke tier: {len(smoke.rows)} row(s), digest {rows_digest(smoke.rows)[:12]}")

    result = run_scenario(spec)
    print()
    print(ascii_table(result.rows, title=f"{spec.name} ({len(result.rows)} rows)"))
    print(f"full sweep: {len(result.rows)} rows in {result.elapsed_seconds:.2f}s, "
          f"digest {rows_digest(result.rows)[:12]}")

    # Keep the process reusable (e.g. under pytest): registration is global.
    unregister(spec.name)


if __name__ == "__main__":
    main()
