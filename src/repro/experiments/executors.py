"""Execution backends for the sweep engine.

An :class:`Executor` maps a cell function over an ordered list of cells and
yields the outcomes *in submission order*, streaming them as they complete.
There is one inline backend, :class:`SerialExecutor`, and one parallel path:
the campaign scheduler of :mod:`repro.distributed`, behind
:class:`~repro.distributed.executor.DistributedExecutor`.

The default backend is selected by the ``REPRO_JOBS`` environment variable:

* unset, ``serial`` or ``1`` -- serial;
* an integer ``N > 1`` -- a local fleet of ``N`` forked workers behind a
  scheduler on an ephemeral loopback port (``tcp://127.0.0.1:0``);
* ``0`` or ``auto`` -- the same fleet with one worker per CPU (serial on
  a one-CPU host, where a one-worker fleet only adds start-up cost);
* ``tcp://HOST:PORT`` -- bind the scheduler there and wait for externally
  started workers;
* ``inproc://NAME`` -- a socketless in-process fleet of coroutine workers,
  one per CPU.

The distributed runtime is imported lazily, so the serial path stays
import-light (no ``multiprocessing``, no sockets).  Every backend honours
the same contract: outcomes stream back in submission order and, because
each cell carries its own deterministic seed, rows are bit-identical across
backends.
"""

from __future__ import annotations

import os
from typing import Callable, Iterator, Sequence, Union

from repro.experiments.grid import Cell, CellOutcome

#: Environment variable selecting the default executor (see module docstring).
JOBS_ENV_VAR = "REPRO_JOBS"

ExecutorSpec = Union[None, str, int, "Executor"]

#: One-line summary of every accepted executor spec, reused by error messages.
SPEC_FORMS = (
    "'serial' (or 1), a worker count N > 1 (local forked fleet), 'auto' "
    "(or 0, one worker per CPU), 'tcp://HOST:PORT' (bind a distributed "
    "campaign scheduler there for external workers), or 'inproc://NAME' "
    "(socketless in-process fleet)"
)

#: Loopback address the local forked fleet binds (port 0 = ephemeral).
LOCAL_FLEET_ADDRESS = "tcp://127.0.0.1:0"


class ExecutorSpecError(ValueError):
    """An executor spec (argument or ``REPRO_JOBS`` value) is not understood."""


class Executor:
    """Maps a cell function over cells, yielding outcomes in order.

    Whoever opens an executor closes it: :meth:`close` (or leaving a
    ``with`` block) releases what the backend keeps between ``map`` calls
    -- nothing for the serial one, a scheduler and a worker fleet for the
    distributed one.
    """

    name = "executor"

    def map(
        self,
        fn: Callable[[Cell], CellOutcome],
        cells: Sequence[Cell],
    ) -> Iterator[CellOutcome]:
        raise NotImplementedError

    def close(self) -> None:
        """Release the backend's resources (a no-op unless it keeps any)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialExecutor(Executor):
    """Run every cell inline, in order (the reference backend)."""

    name = "serial"

    def map(
        self,
        fn: Callable[[Cell], CellOutcome],
        cells: Sequence[Cell],
    ) -> Iterator[CellOutcome]:
        return (fn(cell) for cell in cells)


def cpu_count() -> int:
    """Usable CPUs (honours affinity masks when the platform exposes them)."""

    try:
        return max(len(os.sched_getaffinity(0)), 1)
    except (AttributeError, OSError):
        return max(os.cpu_count() or 1, 1)


def resolve_executor(spec: ExecutorSpec = None) -> Executor:
    """Turn an executor specification into an :class:`Executor` instance.

    ``spec`` may be an executor (returned as-is), ``"serial"``, ``"auto"``,
    an integer worker count, a ``tcp://host:port`` scheduler bind address,
    an ``inproc://name`` address, or ``None`` -- in which case the
    ``REPRO_JOBS`` environment variable decides (defaulting to serial).

    Malformed specs raise :class:`ExecutorSpecError` (a :class:`ValueError`)
    naming the offending value -- and its source when it came from
    ``REPRO_JOBS`` -- plus every accepted form, so a typo like
    ``REPRO_JOBS=ten`` fails with an actionable message instead of a bare
    conversion error deep in the stack.
    """

    source = repr(spec)
    if isinstance(spec, Executor):
        return spec
    if spec is None:
        raw = os.environ.get(JOBS_ENV_VAR, "").strip()
        if not raw:
            return SerialExecutor()
        spec, source = raw, f"{JOBS_ENV_VAR}={raw}"
    if isinstance(spec, str):
        lowered = spec.strip().lower()
        if lowered == "serial":
            return SerialExecutor()
        if "://" in lowered:
            return _resolve_distributed(spec.strip(), source)
        try:
            spec = 0 if lowered == "auto" else int(lowered)
        except ValueError:
            raise ExecutorSpecError(
                f"cannot resolve an executor from {source}: expected {SPEC_FORMS}"
            ) from None
    if isinstance(spec, int):
        if spec < 0:
            raise ExecutorSpecError(
                f"cannot resolve an executor from {source}: a worker count must "
                f"be >= 0 (0 means one worker per CPU)"
            )
        workers = spec or cpu_count()
        if workers == 1:
            return SerialExecutor()
        return _resolve_distributed(LOCAL_FLEET_ADDRESS, source, workers)
    raise TypeError(f"cannot resolve an executor from {spec!r}")


def _resolve_distributed(address: str, source: str, workers: int = 0) -> Executor:
    """Build a :class:`~repro.distributed.executor.DistributedExecutor`.

    Imported lazily: the distributed runtime depends on this module for the
    :class:`Executor` interface, and serial users should not pay for the
    socket and process machinery.  A ``tcp://`` bind address with no worker
    count waits for external workers; an ``inproc://`` fleet cannot take
    external workers, so it raises its own, one per CPU.
    """

    from repro.distributed.executor import DistributedExecutor

    if not workers and address.lower().startswith("inproc://"):
        workers = cpu_count()
    try:
        return DistributedExecutor(address, workers=workers)
    except ValueError as error:
        raise ExecutorSpecError(
            f"cannot resolve an executor from {source}: {error} (expected {SPEC_FORMS})"
        ) from None
