"""The ``inproc://`` comm backend: in-process channels, no sockets.

Modeled on ``distributed/comm/inproc.py`` from early dask ``distributed``:
a process-global table of listeners keyed by location, and connections made
of two single-direction channels (one per flow).  A channel is a thread-safe
deque with a single asyncio waiter, so comms work both between coroutines
sharing one loop (the 1000-worker simulated fleet: scheduler and every
worker on the same loop, zero syscalls per message) and across loops in
different threads (a synchronous worker joining an in-process scheduler).

Fidelity is preserved on purpose: every message is round-tripped through
:func:`repro.distributed.protocol.dump_frame` / ``load_frame``, so the
frame-size guard and the JSON-envelope check behave exactly as they do on
the wire, and nothing can accidentally leak shared mutable state between
"processes".
"""

from __future__ import annotations

import asyncio
import itertools
import os
import threading
from collections import deque
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.distributed import protocol
from repro.distributed.comm import core

_registry_lock = threading.Lock()
_listeners: Dict[str, "InProcListener"] = {}
_counter = itertools.count()


class _Channel:
    """One direction of an in-process connection (single reader)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._items: deque = deque()
        self._closed = False
        # At most one pending reader: (its loop, its future).
        self._waiter: Optional[Tuple[asyncio.AbstractEventLoop, asyncio.Future]] = None

    def put(self, item: bytes) -> None:
        """Append one frame; callable from any thread.  Raises when closed."""

        with self._lock:
            if self._closed:
                raise core.CommClosedError("inproc channel is closed")
            self._items.append(item)
            waiter, self._waiter = self._waiter, None
        if waiter is not None:
            self._wake(waiter)

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            waiter, self._waiter = self._waiter, None
        if waiter is not None:
            self._wake(waiter)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    @property
    def drained(self) -> bool:
        """Closed *and* empty: nothing left for the reader."""

        with self._lock:
            return self._closed and not self._items

    @staticmethod
    def _wake(waiter: Tuple[asyncio.AbstractEventLoop, asyncio.Future]) -> None:
        loop, future = waiter

        def _set() -> None:
            if not future.done():
                future.set_result(None)

        try:
            loop.call_soon_threadsafe(_set)
        except RuntimeError:
            pass  # the reader's loop is gone; nobody is waiting any more

    async def get(self) -> bytes:
        """Pop the next frame, waiting if empty; raises once closed and drained."""

        loop = asyncio.get_running_loop()
        while True:
            with self._lock:
                if self._items:
                    return self._items.popleft()
                if self._closed:
                    raise core.CommClosedError("inproc peer closed the channel")
                future: asyncio.Future = loop.create_future()
                self._waiter = (loop, future)
            try:
                await future
            finally:
                with self._lock:
                    if self._waiter is not None and self._waiter[1] is future:
                        self._waiter = None


class InProcComm(core.Comm):
    """One endpoint of an in-process connection."""

    def __init__(self, send_channel: _Channel, recv_channel: _Channel, peer: str) -> None:
        self._send_channel = send_channel
        self._recv_channel = recv_channel
        self._closed = False
        self.peer = peer

    async def send(self, message: Mapping[str, Any]) -> None:
        self.send_sync(message)

    def send_sync(self, message: Mapping[str, Any]) -> None:
        # The channel is thread-safe, so any thread can put the frame.
        blob = protocol.dump_frame(message)  # same guard as the wire
        if self._closed:
            raise core.CommClosedError(f"comm to {self.peer} is closed")
        try:
            self._send_channel.put(blob)
        except core.CommClosedError:
            self._closed = True
            raise

    async def recv(self) -> Dict[str, Any]:
        if self._closed and self._recv_channel.drained:
            raise core.CommClosedError(f"comm to {self.peer} is closed")
        blob = await self._recv_channel.get()
        return protocol.load_frame(blob)

    async def close(self) -> None:
        self._closed = True
        self._send_channel.close()
        self._recv_channel.close()

    @property
    def closed(self) -> bool:
        return self._closed or self._send_channel.closed


class InProcListener(core.Listener):
    """A named in-process endpoint accepting connections from any thread."""

    def __init__(self, location: str, handler: core.ConnectionHandler) -> None:
        self._location = location or f"{os.getpid()}-{next(_counter)}"
        self._handler = handler
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        with _registry_lock:
            if self._location in _listeners:
                raise core.CommError(
                    f"inproc://{self._location} already has a listener "
                    f"(campaigns on one token must run sequentially)"
                )
            _listeners[self._location] = self

    async def stop(self) -> None:
        with _registry_lock:
            if _listeners.get(self._location) is self:
                del _listeners[self._location]

    @property
    def address(self) -> str:
        return f"inproc://{self._location}"

    def _establish(self) -> core.Comm:
        """Create a connection pair; callable from any thread."""

        loop = self._loop
        if loop is None or loop.is_closed():
            raise core.CommClosedError(f"listener at {self.address} is gone")
        to_server = _Channel()
        to_client = _Channel()
        server_comm = InProcComm(to_client, to_server, peer=f"{self.address}#client")
        client_comm = InProcComm(to_server, to_client, peer=self.address)
        # The handler always runs on the listener's loop, exactly like an
        # accepted socket; run_coroutine_threadsafe works from the listener's
        # own thread too.
        asyncio.run_coroutine_threadsafe(self._handler(server_comm), loop)
        return client_comm


class InProcBackend:
    """The ``inproc://`` scheme: address validation, connect, listen."""

    def validate(self, location: str) -> None:
        if "/" in location:
            raise ValueError(
                f"bad address 'inproc://{location}': a location is a flat "
                f"token (e.g. inproc://campaign); empty picks a fresh one"
            )

    async def connect(self, location: str) -> core.Comm:
        with _registry_lock:
            listener = _listeners.get(location)
        if listener is None:
            raise core.CommClosedError(
                f"no inproc listener at inproc://{location} (is the scheduler "
                f"running in this process?)"
            )
        return listener._establish()

    def listener(self, location: str, handler: core.ConnectionHandler) -> core.Listener:
        return InProcListener(location, handler)

