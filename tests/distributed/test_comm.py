"""The comm layer: the transport table, both built-in backends, frame guard.

The contracts under test:

* addresses are scheme-routed through a fixed two-entry table; unknown or
  malformed schemes fail with messages that name ``tcp://`` and
  ``inproc://``;
* ``tcp://`` and ``inproc://`` comms speak the same framed envelopes --
  the in-process backend round-trips every message through the real frame
  codec, so wire-level guards apply to both;
* the 64 MB frame guard reports actual size vs. limit, and no environment
  variable moves it;
* :func:`repro.distributed.protocol.parse_address` stays the socket-only
  convenience: scheme-aware, friendly about both unknown schemes and known
  non-tcp ones.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.distributed import protocol
from repro.distributed.comm import (
    CommClosedError,
    CommError,
    UnknownSchemeError,
    connect,
    get_backend,
    listener,
    split_address,
    validate_address,
)
from tests.distributed.timings import fast_timings


class TestRegistry:
    def test_built_in_schemes_are_registered(self):
        from repro.distributed.comm.inproc import InProcBackend
        from repro.distributed.comm.tcp import TCPBackend

        assert isinstance(get_backend("tcp"), TCPBackend)
        assert isinstance(get_backend("TCP"), TCPBackend)
        assert isinstance(get_backend("inproc"), InProcBackend)

    def test_unknown_scheme_names_the_registered_ones(self):
        with pytest.raises(UnknownSchemeError) as excinfo:
            get_backend("carrier-pigeon")
        message = str(excinfo.value)
        assert "carrier-pigeon" in message
        assert "inproc://" in message and "tcp://" in message

    def test_unknown_scheme_error_is_a_value_error(self):
        # Callers validating user input catch ValueError; comm-layer callers
        # catch CommError.  The error is both.
        with pytest.raises(ValueError):
            validate_address("carrier-pigeon://x")
        with pytest.raises(CommError):
            validate_address("carrier-pigeon://x")

    def test_address_without_scheme_is_rejected(self):
        with pytest.raises(ValueError, match="scheme"):
            split_address("127.0.0.1:8765")

    def test_backend_specific_validation_is_routed(self):
        validate_address("tcp://127.0.0.1:8765")
        validate_address("inproc://campaign")
        with pytest.raises(ValueError):
            validate_address("tcp://127.0.0.1:notaport")
        with pytest.raises(ValueError):
            validate_address("inproc://not/flat")


class TestSchemeAwareParseAddress:
    def test_tcp_addresses_parse(self):
        assert protocol.parse_address("tcp://10.1.2.3:8765") == ("10.1.2.3", 8765)

    def test_registered_non_tcp_scheme_gets_a_specific_message(self):
        with pytest.raises(ValueError) as excinfo:
            protocol.parse_address("inproc://campaign")
        message = str(excinfo.value)
        assert "inproc" in message
        assert "tcp://HOST:PORT" in message

    def test_unregistered_scheme_names_registered_schemes(self):
        with pytest.raises(ValueError) as excinfo:
            protocol.parse_address("udp://127.0.0.1:8765")
        assert "tcp://" in str(excinfo.value)


def run_echo_listener(address):
    """One-shot echo server on ``address``; returns (bound address, results)."""

    async def echo(comm):
        try:
            while True:
                message = await comm.recv()
                await comm.send({"op": "echo", "body": message})
        except CommError:
            pass
        finally:
            await comm.close()

    return echo


class TestBackendsEndToEnd:
    @pytest.mark.parametrize("address", ["tcp://127.0.0.1:0", "inproc://"])
    def test_echo_round_trip(self, address):
        async def scenario():
            lst = listener(address, run_echo_listener(address))
            await lst.start()
            try:
                comm = await connect(lst.address)
                await comm.send({"op": "ping", "n": 1})
                reply = await comm.recv()
                assert reply == {"op": "echo", "body": {"op": "ping", "n": 1}}
                await comm.close()
            finally:
                await lst.stop()

        asyncio.run(scenario())

    def test_ephemeral_binds_report_dialable_addresses(self):
        async def scenario():
            lst = listener("tcp://127.0.0.1:0", run_echo_listener("t"))
            await lst.start()
            tcp_address = lst.address
            await lst.stop()
            lst2 = listener("inproc://", run_echo_listener("i"))
            await lst2.start()
            inproc_address = lst2.address
            await lst2.stop()
            return tcp_address, inproc_address

        tcp_address, inproc_address = asyncio.run(scenario())
        host, port = protocol.parse_address(tcp_address)
        assert port != 0
        assert inproc_address.startswith("inproc://")
        assert split_address(inproc_address)[1]  # a fresh token was picked

    def test_inproc_connect_without_listener_is_a_comm_error(self):
        async def scenario():
            with pytest.raises(CommClosedError, match="no inproc listener"):
                await connect("inproc://nobody-home")

        asyncio.run(scenario())

    def test_inproc_listener_names_must_be_unique(self):
        async def scenario():
            lst = listener("inproc://taken", run_echo_listener("a"))
            await lst.start()
            try:
                other = listener("inproc://taken", run_echo_listener("b"))
                with pytest.raises(CommError, match="already has a listener"):
                    await other.start()
            finally:
                await lst.stop()

        asyncio.run(scenario())

    def test_inproc_connects_across_threads(self):
        """A client on its own loop in another thread reaches the listener."""

        ready = threading.Event()
        done = threading.Event()
        bound = {}

        async def serve():
            lst = listener("inproc://", run_echo_listener("x"))
            await lst.start()
            bound["address"] = lst.address
            ready.set()
            while not done.is_set():
                await asyncio.sleep(0.01)
            await lst.stop()

        server_thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
        server_thread.start()
        assert ready.wait(timeout=5.0)

        async def client():
            comm = await connect(bound["address"])
            await comm.send({"op": "ping"})
            reply = await comm.recv()
            await comm.close()
            return reply

        try:
            assert asyncio.run(client()) == {"op": "echo", "body": {"op": "ping"}}
        finally:
            done.set()
            server_thread.join(timeout=5.0)


class TestFrameGuard:
    def test_oversized_frame_reports_size_and_limit(self, monkeypatch):
        fast_timings(monkeypatch, max_frame_bytes=1024)
        with pytest.raises(protocol.ProtocolError) as excinfo:
            protocol.dump_frame({"op": "result", "blob": "x" * 2048})
        message = str(excinfo.value)
        assert "1,024" in message           # the limit
        assert "2," in message              # the actual offending size
        assert "REPRO_" not in message      # no knob to point at

    def test_env_var_no_longer_moves_the_limit(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_FRAME", "1024")
        payload = {"op": "result", "blob": "x" * (2 * 1024)}
        assert protocol.load_frame(protocol.dump_frame(payload)) == payload
        protocol.check_frame_length(protocol.MAX_FRAME_BYTES)
        with pytest.raises(protocol.ProtocolError, match="67,108,864"):
            protocol.check_frame_length(protocol.MAX_FRAME_BYTES + 1)
        assert protocol.MAX_FRAME_BYTES == 64 * 1024 * 1024

    def test_inbound_guard_checks_the_same_limit(self, monkeypatch):
        fast_timings(monkeypatch, max_frame_bytes=512)
        with pytest.raises(protocol.ProtocolError, match="512"):
            protocol.check_frame_length(4096)

    def test_inproc_comms_enforce_the_guard_too(self, monkeypatch):
        """The in-process backend is wire-faithful: same codec, same guard."""

        fast_timings(monkeypatch, max_frame_bytes=1024)

        async def scenario():
            lst = listener("inproc://", run_echo_listener("g"))
            await lst.start()
            try:
                comm = await connect(lst.address)
                with pytest.raises(protocol.ProtocolError, match="frame limit"):
                    await comm.send({"op": "result", "blob": "x" * 4096})
                await comm.close()
            finally:
                await lst.stop()

        asyncio.run(scenario())
