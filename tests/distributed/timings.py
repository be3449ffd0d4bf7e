"""Shortened runtime timings for the fault tests.

The distributed runtime's timings are module constants.  A test shortens
them by patching the constants before it starts a scheduler or a fleet:
forked workers inherit the patched values, and every worker takes its
heartbeat interval from the scheduler's ``welcome`` frame.
"""

from __future__ import annotations

from repro.distributed import executor, protocol, scheduler, worker

#: keyword -> (module, constant) of each timing a test may shorten.
CONSTANTS = {
    "heartbeat_interval": (scheduler, "HEARTBEAT_INTERVAL"),
    "heartbeat_timeout": (scheduler, "HEARTBEAT_TIMEOUT"),
    "max_retries": (scheduler, "MAX_RETRIES"),
    "stall_timeout": (scheduler, "STALL_TIMEOUT"),
    "max_frame_bytes": (protocol, "MAX_FRAME_BYTES"),
    "reconnect_delay": (worker, "RECONNECT_DELAY"),
    "reply_timeout": (worker, "REPLY_TIMEOUT"),
    "worker_max_idle": (executor, "WORKER_MAX_IDLE"),
}


def fast_timings(monkeypatch, **values):
    """Patch the named timings for the rest of the test (undone after it)."""

    for name, value in values.items():
        module, constant = CONSTANTS[name]
        monkeypatch.setattr(module, constant, value)
