"""The discrete-event simulation kernel.

The :class:`Simulator` owns the clock and the event queue, and has one
programming style: callbacks.  ``sim.schedule(delay, fn)`` runs ``fn()``
after ``delay`` time units, ``sim.schedule_at(time, fn)`` at an absolute
time; ``cancel``, ``run`` and ``stop`` complete the surface every simulator
and both kernel tiers share.

The kernel is deterministic: simultaneous events run in scheduling order
(see :mod:`repro.simulation.events`), and there is no hidden source of
randomness -- all randomness lives in the workload generators, which take
explicit seeds.

Fast path: the run loop works directly on the queue's tuple heap (no
per-event ``peek``/``pop`` method round-trips) and dispatches every event
tied at the current timestamp in one batch, re-checking only the stop /
max-events guards between callbacks.  Event labels are allocated lazily:
unless ``trace_labels`` is enabled on the simulator, scheduling call sites
skip building the per-event description strings entirely.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.simulation.events import Event, EventQueue
from repro.simulation.kernel import load_ckernel, resolve_kernel


class Simulator:
    """Discrete-event simulation kernel: clock + event queue + run loop.

    ``trace_labels`` opts into per-event description strings (useful when
    debugging a simulation); it is off by default because building one
    f-string per scheduled event measurably slows the hot path down.

    ``kernel`` selects the implementation tier (``pure`` or ``compiled``;
    see :mod:`repro.simulation.kernel`); it defaults to the
    ``REPRO_KERNEL`` environment variable.  The tiers are observably
    identical -- every digest-gated result is bit-for-bit the same -- so
    switching is purely a performance decision.
    """

    __slots__ = (
        "_queue",
        "_now",
        "_running",
        "_stop_requested",
        "processed_events",
        "trace_labels",
    )

    #: Implementation tier of this instance (overridden by the compiled tier).
    kernel_tier = "pure"

    def __new__(cls, *args: Any, **kwargs: Any) -> "Simulator":
        # Constructing the base class transparently yields the compiled
        # subclass when the resolved tier asks for it; explicit subclasses
        # (and direct _CompiledSimulator construction) are left alone.
        if cls is Simulator and resolve_kernel(kwargs.get("kernel")) == "compiled":
            return object.__new__(_CompiledSimulator)
        return object.__new__(cls)

    def __init__(self, *, trace_labels: bool = False, kernel: Optional[str] = None) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._running = False
        self._stop_requested = False
        self.processed_events = 0
        self.trace_labels = trace_labels

    # -- clock -------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulation time."""

        return self._now

    # -- scheduling ----------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Run ``callback`` after ``delay`` time units (relative to now)."""

        if delay < 0:
            raise ValueError("cannot schedule in the past (negative delay)")
        return self._queue.push(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Run ``callback`` at absolute simulation time ``time`` (>= now)."""

        if time < self._now - 1e-12:
            raise ValueError(
                f"cannot schedule at {time}, current time is already {self._now}"
            )
        return self._queue.push(max(time, self._now), callback, priority=priority, label=label)

    def cancel(self, event: Event) -> None:
        self._queue.cancel(event)

    # -- run loop ------------------------------------------------------------
    def run(self, until: Optional[float] = None, *, max_events: Optional[int] = None) -> float:
        """Process events until the queue is empty, ``until`` or ``max_events``.

        Returns the simulation time reached.
        """

        if self._running:
            raise RuntimeError("simulator is already running (re-entrant run())")
        self._running = True
        self._stop_requested = False
        queue = self._queue
        heap = queue._heap
        pop = heapq.heappop
        limit = None if until is None else until + 1e-12
        # ``remaining`` mirrors the historical semantics: at least one event
        # is dispatched before a (possibly zero) max_events budget is checked.
        remaining = max_events
        try:
            while heap:
                head = heap[0]
                if head[3].cancelled:
                    pop(heap)
                    continue
                now = head[0]
                if limit is not None and now > limit:
                    self._now = until  # type: ignore[assignment]
                    return self._now
                self._now = now
                # Batched same-time dispatch: every live event tied at ``now``
                # is inside the horizon checked above, so the inner loop pays
                # only the pop + cancelled test per event.  Events scheduled
                # by a callback at the current time join the batch in (time,
                # priority, seq) order; cancellations made mid-batch are
                # honoured because each event is re-checked when popped.
                while heap and heap[0][0] == now:
                    event = pop(heap)[3]
                    if event.cancelled:
                        continue
                    queue._live -= 1
                    event.callback()  # type: ignore[misc]
                    self.processed_events += 1
                    if self._stop_requested:
                        return self._now
                    if remaining is not None:
                        remaining -= 1
                        if remaining <= 0:
                            return self._now
            # Queue fully drained: advance the clock to the horizon.
            if until is not None:
                self._now = max(self._now, until)
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""

        self._stop_requested = True

    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Simulator(now={self._now:.3f}, pending={len(self._queue)})"


class _CompiledSimulator(Simulator):
    """Simulator backed by the ``repro._ckernel`` C core.

    The core object implements the whole scheduling surface (push/schedule/
    schedule_at/cancel/run/stop plus the EventQueue protocol), so the hot
    methods are bound straight onto the instance: call sites pay one C call
    with no python-level indirection.  Instance attributes shadow the pure
    methods (plain functions are non-data descriptors), while ``now`` /
    ``processed_events`` are re-exposed as properties reading the core.
    """

    # Subclass intentionally has no __slots__: the instance __dict__ holds
    # the core-bound methods that shadow the pure-python hot paths.

    kernel_tier = "compiled"

    def __init__(self, *, trace_labels: bool = False, kernel: Optional[str] = None) -> None:
        ckernel = load_ckernel()
        if ckernel is None:  # pragma: no cover - guarded by resolve_kernel()
            raise RuntimeError(
                "compiled kernel requested but repro._ckernel is not built "
                "(run `make kernel`)"
            )
        core = ckernel.KernelCore()
        self._queue = core
        self.trace_labels = trace_labels
        self.schedule = core.schedule
        self.schedule_at = core.schedule_at
        self.cancel = core.cancel
        self.run = core.run
        self.stop = core.stop

    @property
    def now(self) -> float:
        return self._queue.now

    @property
    def processed_events(self) -> int:
        return self._queue.processed

    @processed_events.setter
    def processed_events(self, value: int) -> None:
        self._queue.processed = value

    def pending_events(self) -> int:
        return len(self._queue)

    def __repr__(self) -> str:
        return f"Simulator(now={self._queue.now:.3f}, pending={len(self._queue)})"
