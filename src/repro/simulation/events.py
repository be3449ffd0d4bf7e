"""Event queue primitives for the discrete-event simulation kernel.

Events are ordered by ``(time, priority, sequence number)``: ties on time are
broken first by an explicit integer priority (smaller runs first) and then by
insertion order, which makes every simulation fully deterministic.

Fast path: the heap stores plain ``(time, priority, seq, event)`` tuples, so
``heappush``/``heappop`` compare C-level tuples and never call back into
Python (``seq`` is unique, so the trailing :class:`Event` is never compared).
:class:`Event` itself is a ``__slots__`` record -- the handle returned to
callers for cancellation and introspection -- instead of an ordered
dataclass.  Cancelled events stay in the heap and are dropped lazily when
they surface, so cancellation is O(1) and ``peek_time`` never re-heapifies.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple


class Event:
    """A scheduled callback (the handle returned by :meth:`EventQueue.push`).

    Attributes
    ----------
    time:
        Simulation time at which the event fires.
    priority:
        Tie-break priority: events scheduled at the same time fire in
        increasing priority order (default 0).
    seq:
        Monotonic insertion counter; never set manually.
    callback:
        Callable invoked with no argument when the event fires.
    label:
        Free-form description, kept for traces and debugging (empty unless
        the scheduling call site opted into label tracing).
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    __slots__ = ("time", "priority", "seq", "callback", "label", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int = 0,
        seq: int = 0,
        callback: Optional[Callable[[], None]] = None,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.label = label
        self.cancelled = False

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be silently dropped."""

        self.cancelled = True

    def sort_key(self) -> Tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        state = " cancelled" if self.cancelled else ""
        label = f" {self.label!r}" if self.label else ""
        return f"<Event t={self.time:g} prio={self.priority} seq={self.seq}{label}{state}>"


_INF = float("inf")

#: Message of the ``ValueError`` raised for a NaN or infinite event time
#: (shared by both kernel tiers).
NON_FINITE_TIME = "cannot schedule an event at a non-finite time"

#: A heap entry; the unique ``seq`` guarantees tuple comparison never
#: reaches the Event payload.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """A deterministic priority queue of :class:`Event` objects."""

    __slots__ = ("_heap", "_seq", "_live")

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._seq = 0
        self._live = 0

    def push(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        if not 0.0 <= time < _INF:
            # NaN fails every comparison: it would never match the run
            # loop's ``== now`` batch test and would hang it.
            if time < 0:
                raise ValueError("cannot schedule an event at a negative time")
            raise ValueError(NON_FINITE_TIME)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, label)
        heapq.heappush(self._heap, (time, priority, seq, event))
        self._live += 1
        return event

    def pop(self) -> Event:
        """Remove and return the next non-cancelled event.

        Raises :class:`IndexError` when the queue is empty.
        """

        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if event.cancelled:
                continue
            self._live -= 1
            return event
        raise IndexError("pop from an empty event queue")

    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` when empty."""

        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        return heap[0][0] if heap else None

    def cancel(self, event: Event) -> None:
        if not event.cancelled:
            event.cancel()
            self._live -= 1

    def __len__(self) -> int:
        return max(self._live, 0)

    def __bool__(self) -> bool:
        return self.peek_time() is not None

    def clear(self) -> None:
        self._heap.clear()
        self._live = 0
