"""The reference slice: a fixed stdlib-only workload that measures host speed.

The benchmark runs the slice immediately before every timed unit and reports
throughput as a ratio of sums, sum of unit wall over sum of slice wall.  A
host that runs the whole process 1.6x slower for a few seconds slows the
slice and the unit alike, so the ratio stays put while raw wall-clock moves.

The slice mixes what the simulator spends its time on: interpreter churn
(small heap objects, dict updates, float arithmetic), an event heap of small
objects ordered by a Python ``__lt__``, and random reads over a working set
of boxed floats larger than a core's L2 cache.  Across processes on a noisy
2-core host, the three parts together tracked a workload's wall time better
than any one of them.  The slice imports nothing from ``repro`` -- a change
to the program must never change the yardstick it is measured with.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: Boxed floats in the working set: ~8 MiB of list pointers plus ~24 MiB of
#: float objects, several times a 4 MiB L2.
WORKING_SET = 1 << 20

#: Iterations of each part of the slice.
CHURN_STEPS = 6_000
HEAP_STEPS = 3_000
READ_STEPS = 20_000

#: The slice's wall time on the reference host (one core of a 2-core Xeon VM,
#: CPython 3.11).  Normalised rates are rescaled to a host where the slice
#: takes exactly this long.
NOMINAL_SECONDS = 0.020


class _Event:
    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: float, seq: int, payload: dict) -> None:
        self.time = time
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)


class ReferenceSlice:
    """Owns the slice's working set; :meth:`run` times one slice."""

    def __init__(self, working_set: int = WORKING_SET) -> None:
        # Reads pick a pseudo-random index, so the list slot and the float
        # object it points to both miss the cache whatever the heap layout.
        self.values: List[float] = [float(i) * 0.5 for i in range(working_set)]
        self.mask = working_set - 1

    def work(self) -> float:
        """One slice of work; the return value keeps it from being elided."""

        table = {}
        acc = 0.0
        for i in range(CHURN_STEPS):
            key = i & 511
            item = (i, float(i) * 1.0001, [key])
            table[key] = table.get(key, 0.0) + item[1] / (1.0 + len(item[2]))
            acc += table[key] * 1e-9
        heap: List[_Event] = []
        state = 7
        for i in range(HEAP_STEPS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            heapq.heappush(heap, _Event(state / 2147483648.0, i, {"n": i}))
            if len(heap) > 64:
                event = heapq.heappop(heap)
                acc += event.time + event.payload["n"]
        values, mask = self.values, self.mask
        index = 1
        for _ in range(READ_STEPS):
            index = (index * 1103515245 + 12345) & 0x7FFFFFFF
            acc += values[index & mask]
        return acc

    def run(self) -> float:
        """Run one slice and return its wall time in seconds."""

        start = time.perf_counter()
        self.work()
        return time.perf_counter() - start
