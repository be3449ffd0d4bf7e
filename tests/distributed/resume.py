"""Kill a sweep part-way, for the cache-resume tests.

The harness stores each outcome in its cell cache before it notifies the
listener, so a listener raising on the ``n``-th row leaves exactly ``n``
cached cells behind -- a campaign killed after ``n`` completed cells.
"""

from __future__ import annotations

from repro.telemetry import SweepListener


class KilledCampaign(RuntimeError):
    """Raised by :class:`KillAfterRows` to stop the sweep."""


class KillAfterRows(SweepListener):
    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.rows = 0

    def on_row(self, experiment, cell, row, outcome) -> None:
        self.rows += 1
        if self.rows == self.limit:
            raise KilledCampaign(f"killed after {self.limit} rows")
