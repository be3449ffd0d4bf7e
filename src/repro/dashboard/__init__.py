"""Live observability dashboard over the telemetry bus.

::

    python -m repro.dashboard                     # serve on :8484
    python -m repro.dashboard serve --port 0      # free port, URL on stderr
    python -m repro.dashboard gantt cluster.policy-panel --out gantt.svg
    python -m repro.dashboard smoke               # CI self-check

The server (:class:`~repro.dashboard.app.DashboardServer`) is a read-only
consumer of the process-wide :class:`~repro.telemetry.bus.TelemetryBus`:
it can watch any campaign running in the same process (``--dashboard
PORT`` on ``python -m repro.scenarios run|sweep``) without perturbing it.  The
Gantt explorer (:mod:`repro.dashboard.gantt`) renders the schedule of any
simulator-backed scenario as SVG, on demand.
"""

from repro.dashboard.app import DashboardServer
from repro.dashboard.gantt import render_gantt_svg, render_scenario_gantt

__all__ = [
    "DashboardServer",
    "render_gantt_svg",
    "render_scenario_gantt",
]
