"""Processor-pool resource with reservations and preemption.

The pool tracks which processor indices of a cluster are busy, grants
allocation requests (possibly queueing them FIFO), honours advance
reservations (section 5.1 "Reservations") and supports *preemptible*
allocations: a best-effort grid task (section 5.2, centralized organisation)
holds its processors preemptibly, and the pool can reclaim them when a local
job needs the space ("If a locally submitted job requires a processor
currently in use by a best-effort job, the latter will be killed").
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.allocation import Reservation


@dataclass
class AllocationRequest:
    """A pending request for ``nbproc`` processors."""

    name: str
    nbproc: int
    preemptible: bool = False
    callback: Optional[Callable[[Tuple[int, ...]], None]] = None

    def __post_init__(self) -> None:
        if self.nbproc < 1:
            raise ValueError("nbproc must be >= 1")


class _Lease:
    """One active allocation; a plain ``__slots__`` record (hot path)."""

    __slots__ = ("name", "processors", "preemptible", "on_preempt")

    def __init__(
        self,
        name: str,
        processors: Tuple[int, ...],
        preemptible: bool,
        on_preempt: Optional[Callable[[Tuple[int, ...]], None]] = None,
    ) -> None:
        self.name = name
        self.processors = processors
        self.preemptible = preemptible
        self.on_preempt = on_preempt


class ProcessorPool:
    """Tracks busy/free processors of a cluster at the current simulation time."""

    def __init__(self, machine_count: int, *, reservations: Sequence[Reservation] = ()) -> None:
        if machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        self.machine_count = machine_count
        self.reservations: Tuple[Reservation, ...] = tuple(reservations)
        self._leases: Dict[str, _Lease] = {}
        self._busy: Set[int] = set()
        #: Free processor indices, maintained in ascending order (bisect
        #: insertion on release): allocation takes the ``nbproc`` smallest
        #: indices -- the historical lowest-index-first selection -- as a
        #: front slice instead of an O(machine_count) range scan per call.
        self._free: List[int] = list(range(machine_count))
        self._queue: List[AllocationRequest] = []

    # -- state -----------------------------------------------------------------
    def free_processors(self, now: float = 0.0) -> List[int]:
        """Processor indices currently free and not blocked by a reservation."""

        if not self.reservations:
            # Fast path: without reservations a processor is free iff it is
            # not busy, and the free-list already holds exactly those in
            # ascending order.
            return list(self._free)
        return [
            p
            for p in self._free
            if not any(r.blocks(p, now, now + 1e-12) for r in self.reservations)
        ]

    def free_count(self, now: float = 0.0) -> int:
        if not self.reservations:
            return len(self._free)
        return len(self.free_processors(now))

    def preemptible_processors(self) -> List[int]:
        """Processors currently held by preemptible (best-effort) leases."""

        out: List[int] = []
        for lease in self._leases.values():
            if lease.preemptible:
                out.extend(lease.processors)
        return sorted(out)

    def busy_count(self) -> int:
        return len(self._busy)

    def utilization(self, now: float = 0.0) -> float:
        return len(self._busy) / self.machine_count

    def holder_of(self, processor: int) -> Optional[str]:
        for lease in self._leases.values():
            if processor in lease.processors:
                return lease.name
        return None

    def leases(self) -> List[str]:
        return list(self._leases)

    # -- acquire / release -------------------------------------------------------
    def try_acquire(
        self,
        name: str,
        nbproc: int,
        *,
        now: float = 0.0,
        preemptible: bool = False,
        on_preempt: Optional[Callable[[Tuple[int, ...]], None]] = None,
        allow_preemption: bool = False,
    ) -> Optional[Tuple[int, ...]]:
        """Try to allocate ``nbproc`` processors to ``name`` immediately.

        Returns the tuple of processor indices on success, ``None`` when not
        enough processors are free.  With ``allow_preemption=True`` the pool
        may first kill preemptible leases (best-effort jobs) to make room;
        their ``on_preempt`` callbacks are invoked with the processors taken
        back.
        """

        if name in self._leases:
            raise ValueError(f"lease {name!r} already active")
        if nbproc < 1:
            raise ValueError("nbproc must be >= 1")
        reserved = bool(self.reservations)
        # Without reservations the free-list itself is the candidate list:
        # read it in place instead of copying it on every acquire.
        free = self.free_processors(now) if reserved else self._free
        if len(free) < nbproc and allow_preemption and not preemptible:
            # Kill best-effort leases until enough processors are free.
            missing = nbproc - len(free)
            victims: List[_Lease] = [
                lease for lease in self._leases.values() if lease.preemptible
            ]
            reclaimed: List[_Lease] = []
            freed = 0
            for lease in victims:
                reclaimed.append(lease)
                freed += len(lease.processors)
                if freed >= missing:
                    break
            if freed >= missing:
                for lease in reclaimed:
                    self.release(lease.name)
                    if lease.on_preempt is not None:
                        lease.on_preempt(lease.processors)
                free = self.free_processors(now) if reserved else self._free
        if len(free) < nbproc:
            return None
        chosen = tuple(free[:nbproc])
        if reserved:
            self._take_free(chosen)
        else:
            # Lowest-index selection: the chosen processors are the head.
            del self._free[:nbproc]
        self._busy.update(chosen)
        self._leases[name] = _Lease(name, chosen, preemptible, on_preempt)
        return chosen

    def _take_free(self, processors: Sequence[int]) -> None:
        """Remove ``processors`` from the sorted free-list."""

        free = self._free
        for p in processors:
            # Bisect would also work, but the list is typically short-lived
            # and remove() on ints is a C-level scan.
            free.remove(p)

    def acquire_specific(
        self,
        name: str,
        processors: Sequence[int],
        *,
        now: float = 0.0,
        preemptible: bool = False,
        on_preempt: Optional[Callable[[Tuple[int, ...]], None]] = None,
    ) -> Tuple[int, ...]:
        """Allocate an explicit set of processors (used by reservation handling)."""

        if name in self._leases:
            raise ValueError(f"lease {name!r} already active")
        processors = tuple(int(p) for p in processors)
        for p in processors:
            if not 0 <= p < self.machine_count:
                raise ValueError(f"processor {p} outside pool")
            if p in self._busy:
                raise ValueError(f"processor {p} is busy (held by {self.holder_of(p)!r})")
        self._take_free(processors)
        self._busy.update(processors)
        self._leases[name] = _Lease(name, processors, preemptible, on_preempt)
        return processors

    def release(self, name: str) -> Tuple[int, ...]:
        """Release the processors held by ``name``."""

        try:
            lease = self._leases.pop(name)
        except KeyError:
            raise KeyError(f"no active lease named {name!r}") from None
        self._busy.difference_update(lease.processors)
        free = self._free
        for p in lease.processors:
            insort(free, p)
        return lease.processors

    def is_held(self, name: str) -> bool:
        return name in self._leases

    def __repr__(self) -> str:
        return (
            f"ProcessorPool(machines={self.machine_count}, busy={len(self._busy)}, "
            f"leases={len(self._leases)})"
        )
