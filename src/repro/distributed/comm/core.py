"""Abstract communication layer of the distributed runtime.

The scheduler and workers never touch sockets directly any more: they speak
to each other through a :class:`Comm` (one established, message-oriented,
bidirectional channel) obtained either by :func:`connect`-ing to an address
or handed to a :class:`Listener`'s connection handler.  Addresses are
``scheme://location`` strings; each scheme is served by a :class:`Backend`
looked up in a process-global registry:

* ``tcp://HOST:PORT`` -- asyncio streams speaking the length-prefixed
  JSON framing of :mod:`repro.distributed.protocol` (the PR-4 wire format,
  unchanged: old workers interoperate);
* ``inproc://NAME`` -- in-process channels with no sockets and no
  serialisation syscalls, so tests can spin up a 1000-worker simulated
  fleet inside one process.

The shape follows ``distributed/comm/core.py`` from early dask
``distributed``: tiny abstract ``Comm``/``Listener`` surfaces, concrete
backends registered per scheme, and every error funnelled into a small
exception family so callers can write one ``except CommError`` clause.

All ``Comm`` methods except :meth:`Comm.send_sync` are coroutines and must
be driven from an asyncio event loop; ``send_sync`` may be called from any
thread.  The inproc backend additionally supports *cross-loop* use
(connecting from one thread's loop to a listener owned by another), which
is what lets a synchronous worker join an in-process scheduler.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Awaitable, Callable, Dict, Mapping, Tuple


class CommError(RuntimeError):
    """Base class of every failure raised by the communication layer."""


class CommClosedError(CommError):
    """The peer (or the channel itself) went away mid-conversation."""


class UnknownSchemeError(CommError, ValueError):
    """An address names a scheme no registered backend serves."""


#: A listener invokes this with each freshly established server-side comm.
ConnectionHandler = Callable[["Comm"], Awaitable[None]]


class Comm(ABC):
    """One established bidirectional message channel."""

    #: Human-readable peer description for logs and errors.
    peer: str = "?"

    @abstractmethod
    async def send(self, message: Mapping[str, Any]) -> None:
        """Write one message envelope; raises :class:`CommClosedError` if gone."""

    @abstractmethod
    def send_sync(self, message: Mapping[str, Any]) -> None:
        """Write one envelope from any thread, returning once it is sent.

        Frames keep their order with every other send on the comm.  The
        worker's drain loop uses it to stream each result before the next
        cell starts.
        """

    @abstractmethod
    async def recv(self) -> Dict[str, Any]:
        """Read the next message envelope; raises :class:`CommClosedError` on EOF."""

    @abstractmethod
    async def close(self) -> None:
        """Tear the channel down (idempotent; never raises)."""

    @property
    @abstractmethod
    def closed(self) -> bool:
        """Whether :meth:`close` ran or the peer disconnected."""


class Listener(ABC):
    """A bound address accepting connections and handing comms to a handler."""

    @abstractmethod
    async def start(self) -> None:
        """Bind and begin accepting (the bound :attr:`address` is valid after)."""

    @abstractmethod
    async def stop(self) -> None:
        """Unbind; already-established comms stay open (idempotent)."""

    @property
    @abstractmethod
    def address(self) -> str:
        """The contact address clients should :func:`connect` to."""


class Backend(ABC):
    """Everything one scheme needs: address validation, connect, listen."""

    #: The scheme this backend serves (lowercase, no ``://``).
    scheme: str = ""

    @abstractmethod
    def validate(self, location: str) -> None:
        """Raise :class:`ValueError` when ``location`` is malformed."""

    @abstractmethod
    async def connect(self, location: str) -> Comm:
        """Establish a client comm to ``location``."""

    @abstractmethod
    def listener(self, location: str, handler: ConnectionHandler) -> Listener:
        """A new (unstarted) listener bound to ``location`` once started."""


# -- the scheme registry -----------------------------------------------------

_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend, *, overwrite: bool = False) -> None:
    """Make ``backend`` the handler of its scheme (collisions are errors)."""

    scheme = backend.scheme.lower()
    if not scheme:
        raise ValueError("a comm backend must declare a non-empty scheme")
    if not overwrite and scheme in _REGISTRY and _REGISTRY[scheme] is not backend:
        raise ValueError(f"comm scheme {scheme!r} is already registered")
    _REGISTRY[scheme] = backend


def registered_schemes() -> Tuple[str, ...]:
    """The schemes the runtime currently speaks, sorted."""

    _ensure_default_backends()
    return tuple(sorted(_REGISTRY))


def get_backend(scheme: str) -> Backend:
    """The backend serving ``scheme``; unknown schemes fail with the menu."""

    _ensure_default_backends()
    backend = _REGISTRY.get(scheme.lower())
    if backend is None:
        known = ", ".join(f"{name}://" for name in sorted(_REGISTRY))
        raise UnknownSchemeError(
            f"unknown comm scheme {scheme!r}: registered schemes are {known} "
            f"(e.g. tcp://127.0.0.1:8765 or inproc://campaign)"
        )
    return backend


def split_address(address: str) -> Tuple[str, str]:
    """Split ``scheme://location`` into its parts, friendly on malformed input."""

    text = str(address).strip()
    scheme, sep, location = text.partition("://")
    if not sep or not scheme:
        known = ", ".join(f"{name}://" for name in registered_schemes())
        raise ValueError(
            f"bad address {address!r}: expected 'SCHEME://LOCATION' with one "
            f"of the registered schemes {known} (e.g. tcp://127.0.0.1:8765)"
        )
    return scheme.lower(), location


def validate_address(address: str) -> Tuple[str, str]:
    """Parse and backend-validate an address, returning ``(scheme, location)``.

    Raises :class:`UnknownSchemeError` for unregistered schemes and
    :class:`ValueError` for locations the backend rejects -- both carrying
    actionable messages, mirroring ``ExecutorSpecError``'s style.
    """

    scheme, location = split_address(address)
    get_backend(scheme).validate(location)
    return scheme, location


async def connect(address: str) -> Comm:
    """Establish a client comm to ``address`` via its scheme's backend."""

    scheme, location = split_address(address)
    return await get_backend(scheme).connect(location)


def listener(address: str, handler: ConnectionHandler) -> Listener:
    """A new (unstarted) listener for ``address`` via its scheme's backend."""

    scheme, location = split_address(address)
    return get_backend(scheme).listener(location, handler)


def _ensure_default_backends() -> None:
    """Import the built-in backends so they self-register (idempotent).

    Imported lazily to keep the import graph acyclic: ``protocol`` imports
    this module for the registry, and the tcp backend imports ``protocol``
    for the framing helpers.
    """

    if "tcp" not in _REGISTRY or "inproc" not in _REGISTRY:
        from repro.distributed.comm import inproc, tcp  # noqa: F401
