"""The communication layer of the distributed runtime: two built-in transports.

``tcp://HOST:PORT`` (asyncio sockets, PR-4 wire format) and
``inproc://NAME`` (in-process channels, no sockets) are the whole transport
table; see :mod:`repro.distributed.comm.core` for the interfaces and
:func:`~repro.distributed.comm.core.get_backend` for the table.
"""

from repro.distributed.comm.core import (
    Comm,
    CommClosedError,
    CommError,
    ConnectionHandler,
    Listener,
    UnknownSchemeError,
    connect,
    get_backend,
    listener,
    split_address,
    validate_address,
)

__all__ = [
    "Comm",
    "CommClosedError",
    "CommError",
    "ConnectionHandler",
    "Listener",
    "UnknownSchemeError",
    "connect",
    "get_backend",
    "listener",
    "split_address",
    "validate_address",
]
