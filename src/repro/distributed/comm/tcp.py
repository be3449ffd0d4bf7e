"""The ``tcp://`` comm backend: asyncio streams, PR-4 wire format unchanged.

One frame = 4-byte big-endian length header + that many bytes of UTF-8 JSON
(see :mod:`repro.distributed.protocol`, which owns the format).  Because the
bytes on the wire are identical to the old thread-per-connection runtime,
plain-socket peers -- external workers from older deployments, the raw
``FakeWorker`` protocol tests -- interoperate with the asyncio scheduler
without change.
"""

from __future__ import annotations

import asyncio
import socket
from typing import Any, Dict, Mapping, Optional

from repro.distributed import protocol
from repro.distributed.comm import core


class TCPComm(core.Comm):
    """One framed asyncio stream connection."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self._send_lock = asyncio.Lock()  # frames must never interleave
        self._loop = asyncio.get_running_loop()  # the loop owning the stream
        self._closed = False
        try:
            peer = writer.get_extra_info("peername")
            self.peer = f"tcp://{peer[0]}:{peer[1]}" if peer else "tcp://?"
        except (OSError, IndexError, TypeError):
            self.peer = "tcp://?"

    def _frame(self, message: Mapping[str, Any]) -> bytes:
        blob = protocol.dump_frame(message)
        if self._closed:
            raise protocol.ConnectionClosed(f"comm to {self.peer} is closed")
        return protocol.pack_header(len(blob)) + blob

    async def send(self, message: Mapping[str, Any]) -> None:
        await self._send_frame(self._frame(message))

    async def _send_frame(self, frame: bytes) -> None:
        try:
            async with self._send_lock:
                self._writer.write(frame)
                await self._writer.drain()
        except (BrokenPipeError, ConnectionResetError, OSError) as error:
            self._closed = True
            raise protocol.ConnectionClosed(
                f"peer {self.peer} went away while sending: {error}"
            ) from error

    def send_sync(self, message: Mapping[str, Any]) -> None:
        frame = self._frame(message)
        try:
            on_loop = asyncio.get_running_loop() is self._loop
        except RuntimeError:
            on_loop = False
        if on_loop:
            # The loop's own thread cannot wait for itself; a whole frame
            # handed to the transport is written in order all the same.
            if self._writer.is_closing():
                self._closed = True
                raise protocol.ConnectionClosed(f"comm to {self.peer} is closed")
            self._writer.write(frame)
            return
        try:
            done = asyncio.run_coroutine_threadsafe(self._send_frame(frame), self._loop)
        except RuntimeError as error:  # the loop is closed
            raise protocol.ConnectionClosed(f"comm to {self.peer} is closed") from error
        done.result()

    async def recv(self) -> Dict[str, Any]:
        if self._closed:
            raise protocol.ConnectionClosed(f"comm to {self.peer} is closed")
        try:
            header = await self._reader.readexactly(protocol.header_size())
            length = protocol.unpack_header(header)
            protocol.check_frame_length(length)
            blob = await self._reader.readexactly(length)
        except asyncio.IncompleteReadError as error:
            self._closed = True
            raise protocol.ConnectionClosed(
                f"connection to {self.peer} closed mid-frame "
                f"({len(error.partial)} of {error.expected or 0} bytes)"
            ) from error
        except (ConnectionResetError, ConnectionAbortedError, OSError) as error:
            self._closed = True
            raise protocol.ConnectionClosed(
                f"peer {self.peer} reset the connection: {error}"
            ) from error
        return protocol.load_frame(blob)

    async def close(self) -> None:
        if self._closed and self._writer.is_closing():
            return
        self._closed = True
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (OSError, asyncio.CancelledError):
            pass

    @property
    def closed(self) -> bool:
        return self._closed or self._writer.is_closing()


class TCPListener(core.Listener):
    """An asyncio server handing each accepted connection to the handler."""

    def __init__(self, location: str, handler: core.ConnectionHandler) -> None:
        self._host, self._port = protocol.parse_host_port(location, f"tcp://{location}")
        self._handler = handler
        self._server: Optional[asyncio.base_events.Server] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._accept, self._host or None, self._port
        )
        self._port = self._server.sockets[0].getsockname()[1]

    async def _accept(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        await self._handler(TCPComm(reader, writer))

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            try:
                await self._server.wait_closed()
            except asyncio.CancelledError:
                pass
            self._server = None

    @property
    def address(self) -> str:
        # A wildcard bind is not a dialable contact address; advertise
        # loopback, matching the old scheduler's behaviour.
        host = self._host if self._host not in ("", "0.0.0.0") else "127.0.0.1"
        return protocol.format_address(host, self._port)


class TCPBackend:
    """The ``tcp://`` scheme: address validation, connect, listen."""

    def validate(self, location: str) -> None:
        protocol.parse_host_port(location, f"tcp://{location}")

    async def connect(self, location: str) -> core.Comm:
        host, port = protocol.parse_host_port(location, f"tcp://{location}")
        try:
            reader, writer = await asyncio.open_connection(host, port)
        except OSError as error:
            raise core.CommClosedError(
                f"cannot connect to tcp://{host}:{port}: {error}"
            ) from error
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        return TCPComm(reader, writer)

    def listener(self, location: str, handler: core.ConnectionHandler) -> core.Listener:
        return TCPListener(location, handler)

