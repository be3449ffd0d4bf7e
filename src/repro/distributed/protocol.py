"""Length-prefixed JSON framing and payload encoding for the distributed runtime.

Every message on the wire is one *frame*: a 4-byte big-endian length header
followed by that many bytes of UTF-8 JSON encoding a single object with an
``"op"`` key.  JSON keeps the protocol inspectable (``tcpdump`` shows
readable envelopes) and versionable; fields that must carry arbitrary
Python objects -- the cell function, :class:`~repro.experiments.grid.Cell`
instances and :class:`~repro.experiments.grid.CellOutcome` results -- are
pickled and base64-embedded via :func:`encode_payload` /
:func:`decode_payload`.

This module owns the *format* only; transport lives in the pluggable comm
layer (:mod:`repro.distributed.comm`): the ``tcp://`` backend frames
asyncio streams with these helpers, and the ``inproc://`` backend reuses
the same envelope checks without sockets.

Message vocabulary (all envelopes carry ``"op"``):

=============  =========  ==================================================
op             direction  meaning
=============  =========  ==================================================
``hello``      w -> s     register; carries ``worker`` (the worker's id)
``welcome``    s -> w     registration ack; carries ``heartbeat_interval``
                          and ``telemetry`` (whether the scheduler wants
                          span capture + forwarding)
``request``    w -> s     pull work (also refreshes the heartbeat)
``task``       s -> w     a lease: the first assignment's ``campaign``,
                          ``index``, ``attempt``, ``cell`` payload, then
                          optional ``extra`` assignments -- ``ceil(pending /
                          connected workers)`` in all -- plus ``fn``
                          payload the first time this connection sees the
                          campaign
``idle``       s -> w     no work right now; retry after ``delay`` seconds
``result``     w -> s     a finished cell: ``campaign``, ``index``,
                          ``attempt``, ``outcome`` payload (no ack); sent
                          before the worker starts the next lease entry,
                          so a lost worker is charged only for its head
``heartbeat``  w -> s     I-am-alive while executing a long cell (no ack)
``revoke``     s -> w     give still-queued assignments ``indices`` of
                          ``campaign`` back (an idle worker wants to steal)
``revoked``    w -> s     steal confirmation: ``indices`` were still queued
                          and dropped, ``kept`` had already started
``telemetry``  w -> s     batched local telemetry events: ``worker``,
                          ``events`` (list of ``{topic, seq, time,
                          payload}``), ``dropped`` (local overflow count);
                          additive and fire-and-forget -- re-published on
                          the scheduler bus under ``worker.<id>.*`` (no ack)
``bye``        w -> s     orderly disconnect
=============  =========  ==================================================

The frame-size guard defaults to 64 MB and is configurable through the
``REPRO_MAX_FRAME`` environment variable (bytes); oversized frames are
rejected with the actual size and the active limit in the message.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import struct
from typing import Any, Dict, Mapping, Tuple

from repro.distributed.comm.core import (
    CommClosedError,
    CommError,
    get_backend,
    split_address,
)

#: Default upper bound on a single frame; anything larger is treated as
#: stream corruption rather than a legitimate message.  Override through
#: :data:`MAX_FRAME_ENV_VAR`.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Environment variable overriding the frame limit (integer, bytes).
MAX_FRAME_ENV_VAR = "REPRO_MAX_FRAME"

_HEADER = struct.Struct(">I")

#: The scheme of the socket transport (kept for back-compat; the comm
#: registry in :mod:`repro.distributed.comm.core` is the source of truth).
SCHEME = "tcp"


class ProtocolError(CommError):
    """The byte stream does not follow the framing protocol."""


class ConnectionClosed(ProtocolError, CommClosedError):
    """The peer closed the connection (cleanly or not) mid-conversation."""


def max_frame_bytes() -> int:
    """The active frame limit: ``REPRO_MAX_FRAME`` or the 64 MB default."""

    raw = os.environ.get(MAX_FRAME_ENV_VAR, "").strip()
    if not raw:
        return MAX_FRAME_BYTES
    try:
        limit = int(raw)
    except ValueError:
        raise ProtocolError(
            f"{MAX_FRAME_ENV_VAR}={raw!r} is not an integer byte count"
        ) from None
    if limit <= 0:
        raise ProtocolError(f"{MAX_FRAME_ENV_VAR}={raw!r} must be a positive byte count")
    return limit


def parse_address(address: str) -> Tuple[str, int]:
    """Split a ``tcp://HOST:PORT`` address into ``(host, port)``.

    Scheme-aware: an address with an unregistered scheme fails naming the
    registered ones, and a registered-but-non-tcp address (``inproc://``)
    explains that this API needs a socket address.  Raises
    :class:`ValueError` in both cases, so executor-spec and CLI errors stay
    friendly.
    """

    scheme, location = split_address(address)
    get_backend(scheme)  # unknown scheme -> UnknownSchemeError naming the menu
    if scheme != SCHEME:
        raise ValueError(
            f"address {address!r} uses the {scheme}:// scheme, but this API "
            f"needs a socket address of the form tcp://HOST:PORT"
        )
    return parse_host_port(location, address)


def parse_host_port(location: str, address: str) -> Tuple[str, int]:
    """Split ``HOST:PORT`` (the location part of a tcp address)."""

    host, sep, port_text = location.rpartition(":")
    if not sep or not host:
        raise ValueError(
            f"bad address {address!r}: expected 'tcp://HOST:PORT' with an "
            f"explicit port (use port 0 to bind an ephemeral port)"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(
            f"bad address {address!r}: port {port_text!r} is not an integer"
        ) from None
    if not 0 <= port <= 65535:
        raise ValueError(f"bad address {address!r}: port must be in [0, 65535]")
    return host, port


def format_address(host: str, port: int) -> str:
    return f"{SCHEME}://{host}:{port}"


# -- frame encoding (shared by the comm backends and the raw-socket tests) ---


def dump_frame(message: Mapping[str, Any]) -> bytes:
    """Serialise one envelope to JSON bytes, enforcing the frame limit."""

    blob = json.dumps(message, separators=(",", ":")).encode("utf-8")
    limit = max_frame_bytes()
    if len(blob) > limit:
        raise ProtocolError(
            f"message of {len(blob):,} bytes exceeds the {limit:,}-byte frame "
            f"limit (set {MAX_FRAME_ENV_VAR} to raise it)"
        )
    return blob


def check_frame_length(length: int) -> None:
    """Reject an inbound frame header that exceeds the active limit."""

    limit = max_frame_bytes()
    if length > limit:
        raise ProtocolError(
            f"frame of {length:,} bytes exceeds the {limit:,}-byte limit "
            f"(corrupt stream? set {MAX_FRAME_ENV_VAR} to raise the limit)"
        )


def load_frame(blob: bytes) -> Dict[str, Any]:
    """Decode one frame body into an op envelope, or raise loudly."""

    try:
        message = json.loads(blob.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise ProtocolError(f"undecodable frame: {error}") from error
    if not isinstance(message, dict) or "op" not in message:
        raise ProtocolError(f"frame is not an op envelope: {message!r}")
    return message


def pack_header(length: int) -> bytes:
    return _HEADER.pack(length)


def header_size() -> int:
    return _HEADER.size


def unpack_header(header: bytes) -> int:
    (length,) = _HEADER.unpack(header)
    return length


# -- payload encoding --------------------------------------------------------


def encode_payload(obj: Any) -> str:
    """Pickle an arbitrary Python object into a JSON-safe ASCII string."""

    return base64.b64encode(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode("ascii")


def decode_payload(text: str) -> Any:
    try:
        return pickle.loads(base64.b64decode(text.encode("ascii")))
    except Exception as error:  # unpicklable payloads must fail loudly, typed
        raise ProtocolError(f"cannot decode payload: {type(error).__name__}: {error}") from error
