"""Processor-pool resource with preemption.

The pool tracks which processor indices of a cluster are busy, grants an
allocation immediately or refuses it, and supports *preemptible*
allocations: a best-effort grid task (section 5.2, centralized organisation)
holds its processors preemptibly, and the pool can reclaim them when a local
job needs the space ("If a locally submitted job requires a processor
currently in use by a best-effort job, the latter will be killed").
"""

from __future__ import annotations

from bisect import insort
from typing import Callable, Dict, List, Optional, Tuple


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
    """Tracks busy/free processors of a cluster at the current simulation time.

    Leases are kept in grant order, and preemption kills preemptible leases
    in that order.  :meth:`hand_over` passes a lease's processors straight
    to a new holder without freeing them, which keeps that order exactly as
    a :meth:`release` followed by a :meth:`try_acquire` would.
    """

    def __init__(self, machine_count: int) -> None:
        if machine_count < 1:
            raise ValueError("machine_count must be >= 1")
        self.machine_count = machine_count
        self._leases: Dict[str, _Lease] = {}
        #: Free processor indices, maintained in ascending order (bisect
        #: insertion on release): allocation takes the ``nbproc`` smallest
        #: indices -- the historical lowest-index-first selection -- as a
        #: front slice instead of an O(machine_count) range scan per call.
        self._free: List[int] = list(range(machine_count))

    # -- state -----------------------------------------------------------------
    def free_count(self) -> int:
        return len(self._free)

    def preemptible_processors(self) -> List[int]:
        """Processors currently held by preemptible (best-effort) leases."""

        out: List[int] = []
        for lease in self._leases.values():
            if lease.preemptible:
                out.extend(lease.processors)
        return sorted(out)

    # -- acquire / release -------------------------------------------------------
    def try_acquire(
        self,
        name: str,
        nbproc: int,
        *,
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
        free = self._free
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
        if len(free) < nbproc:
            return None
        # Lowest-index selection: the chosen processors are the head.
        chosen = tuple(free[:nbproc])
        del free[:nbproc]
        self._leases[name] = _Lease(name, chosen, preemptible, on_preempt)
        return chosen

    def release(self, name: str) -> Tuple[int, ...]:
        """Release the processors held by ``name``."""

        try:
            lease = self._leases.pop(name)
        except KeyError:
            raise KeyError(f"no active lease named {name!r}") from None
        free = self._free
        for p in lease.processors:
            insort(free, p)
        return lease.processors

    def hand_over(
        self,
        name: str,
        new_name: str,
        on_preempt: Optional[Callable[[Tuple[int, ...]], None]] = None,
    ) -> Tuple[int, ...]:
        """Move the processors of lease ``name`` to a new lease ``new_name``.

        The same as ``release(name)`` followed by a ``try_acquire`` of the
        same processors under ``new_name`` when nothing else is free: the
        lease keeps its processors and its preemptibility, takes the new
        name and callback, and moves to the end of the lease order (the
        order preemption picks its victims in).  Raises ``ValueError`` if
        ``new_name`` is already active and ``KeyError`` if ``name`` is not.
        """

        leases = self._leases
        if new_name in leases:
            raise ValueError(f"lease {new_name!r} already active")
        try:
            lease = leases.pop(name)
        except KeyError:
            raise KeyError(f"no active lease named {name!r}") from None
        lease.name = new_name
        lease.on_preempt = on_preempt
        leases[new_name] = lease
        return lease.processors

    def __repr__(self) -> str:
        busy = self.machine_count - len(self._free)
        return (
            f"ProcessorPool(machines={self.machine_count}, busy={busy}, "
            f"leases={len(self._leases)})"
        )
