"""Abstract communication layer of the distributed runtime.

The scheduler and workers never touch sockets directly any more: they speak
to each other through a :class:`Comm` (one established, message-oriented,
bidirectional channel) obtained either by :func:`connect`-ing to an address
or handed to a :class:`Listener`'s connection handler.  Addresses are
``scheme://location`` strings, and the scheme picks one of two built-in
backends from a fixed table (:func:`get_backend`):

* ``tcp://HOST:PORT`` -- asyncio streams speaking the length-prefixed
  JSON framing of :mod:`repro.distributed.protocol` (the PR-4 wire format,
  unchanged: old workers interoperate);
* ``inproc://NAME`` -- in-process channels with no sockets and no
  serialisation syscalls, so tests can spin up a 1000-worker simulated
  fleet inside one process.

The shape follows ``distributed/comm/core.py`` from early dask
``distributed``: tiny abstract ``Comm``/``Listener`` surfaces, one concrete
backend per scheme, and every error funnelled into a small exception family
so callers can write one ``except CommError`` clause.

All ``Comm`` methods except :meth:`Comm.send_sync` are coroutines and must
be driven from an asyncio event loop; ``send_sync`` may be called from any
thread.  The inproc backend additionally supports *cross-loop* use
(connecting from one thread's loop to a listener owned by another), which
is what lets a synchronous worker join an in-process scheduler.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING, Any, Awaitable, Callable, Dict, Mapping, Tuple, Union

if TYPE_CHECKING:
    from repro.distributed.comm.inproc import InProcBackend
    from repro.distributed.comm.tcp import TCPBackend


class CommError(RuntimeError):
    """Base class of every failure raised by the communication layer."""


class CommClosedError(CommError):
    """The peer (or the channel itself) went away mid-conversation."""


class UnknownSchemeError(CommError, ValueError):
    """An address names a scheme neither built-in backend serves."""


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


# -- the transport table -----------------------------------------------------

#: The schemes the runtime speaks, as error messages list them.
KNOWN_SCHEMES = "inproc://, tcp://"

_BACKENDS: Dict[str, "Union[TCPBackend, InProcBackend]"] = {}


def get_backend(scheme: str) -> "Union[TCPBackend, InProcBackend]":
    """The backend serving ``scheme``; unknown schemes fail with the menu."""

    if not _BACKENDS:
        # Built on first use to keep the import graph acyclic: ``protocol``
        # imports this module, and the tcp backend imports ``protocol`` for
        # the framing helpers.
        from repro.distributed.comm.inproc import InProcBackend
        from repro.distributed.comm.tcp import TCPBackend

        _BACKENDS.update(tcp=TCPBackend(), inproc=InProcBackend())
    backend = _BACKENDS.get(scheme.lower())
    if backend is None:
        raise UnknownSchemeError(
            f"unknown comm scheme {scheme!r}: known schemes are {KNOWN_SCHEMES} "
            f"(e.g. tcp://127.0.0.1:8765 or inproc://campaign)"
        )
    return backend


def split_address(address: str) -> Tuple[str, str]:
    """Split ``scheme://location`` into its parts, friendly on malformed input."""

    text = str(address).strip()
    scheme, sep, location = text.partition("://")
    if not sep or not scheme:
        raise ValueError(
            f"bad address {address!r}: expected 'SCHEME://LOCATION' with one "
            f"of the schemes {KNOWN_SCHEMES} (e.g. tcp://127.0.0.1:8765)"
        )
    return scheme.lower(), location


def validate_address(address: str) -> Tuple[str, str]:
    """Parse and backend-validate an address, returning ``(scheme, location)``.

    Raises :class:`UnknownSchemeError` for unknown schemes and
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
