"""Blocking raw-socket framing for tests that drive the scheduler by hand.

The runtime itself speaks through the comm layer (:mod:`repro.distributed.comm`);
these helpers write and read the same length-prefixed frames over a plain
socket, so the tests can prove the wire format did not drift.
"""

from __future__ import annotations

import socket
from typing import Any, Dict, Mapping

from repro.distributed.protocol import (
    ConnectionClosed,
    check_frame_length,
    dump_frame,
    header_size,
    load_frame,
    pack_header,
    unpack_header,
)


def send_message(sock: socket.socket, message: Mapping[str, Any]) -> None:
    """Serialise ``message`` as one frame and write it out completely."""

    blob = dump_frame(message)
    try:
        sock.sendall(pack_header(len(blob)) + blob)
    except (BrokenPipeError, ConnectionResetError) as error:
        raise ConnectionClosed(f"peer went away while sending: {error}") from error


def recv_message(sock: socket.socket) -> Dict[str, Any]:
    """Read exactly one frame and decode it; raises on EOF or corruption."""

    length = unpack_header(_recv_exact(sock, header_size()))
    check_frame_length(length)
    return load_frame(_recv_exact(sock, length))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    chunks = []
    remaining = n
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except (ConnectionResetError, ConnectionAbortedError) as error:
            raise ConnectionClosed(f"peer reset the connection: {error}") from error
        if not chunk:
            raise ConnectionClosed(
                f"connection closed with {remaining} of {n} bytes outstanding"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)
