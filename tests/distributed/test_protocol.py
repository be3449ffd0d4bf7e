"""Wire-format tests: framing, payload round-trips, address parsing."""

from __future__ import annotations

import socket
import threading

import pytest

from repro.distributed import protocol
from repro.experiments.grid import Cell, CellOutcome
from tests.distributed.wire import recv_message, send_message


def socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname())
    accepted, _ = server.accept()
    server.close()
    return client, accepted


class TestFraming:
    def test_message_round_trip(self):
        left, right = socket_pair()
        try:
            send_message(left, {"op": "hello", "worker": "w1"})
            assert recv_message(right) == {"op": "hello", "worker": "w1"}
        finally:
            left.close()
            right.close()

    def test_back_to_back_frames_do_not_bleed(self):
        left, right = socket_pair()
        try:
            for index in range(20):
                send_message(left, {"op": "n", "i": index, "pad": "x" * index * 37})
            for index in range(20):
                assert recv_message(right)["i"] == index
        finally:
            left.close()
            right.close()

    def test_large_frame_survives_partial_recv(self):
        left, right = socket_pair()
        try:
            message = {"op": "blob", "data": "y" * 2_000_000}
            thread = threading.Thread(target=send_message, args=(left, message))
            thread.start()
            received = recv_message(right)
            thread.join()
            assert received == message
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_closed(self):
        left, right = socket_pair()
        left.close()
        try:
            with pytest.raises(protocol.ConnectionClosed):
                recv_message(right)
        finally:
            right.close()

    def test_mid_frame_eof_raises_connection_closed(self):
        left, right = socket_pair()
        try:
            left.sendall(b"\x00\x00\x01\x00partial")
            left.close()
            with pytest.raises(protocol.ConnectionClosed):
                recv_message(right)
        finally:
            right.close()

    def test_oversized_header_is_treated_as_corruption(self):
        left, right = socket_pair()
        try:
            left.sendall(b"\xff\xff\xff\xff")
            with pytest.raises(protocol.ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()

    def test_non_envelope_frame_rejected(self):
        left, right = socket_pair()
        try:
            send_message(left, {"no_op_key": 1})
            with pytest.raises(protocol.ProtocolError):
                recv_message(right)
        finally:
            left.close()
            right.close()


class TestPayloads:
    def test_cell_and_outcome_round_trip(self):
        cell = Cell(index=3, repetition=1, seed=1235, params=(("a", 1), ("b", "x")))
        outcome = CellOutcome(cell=cell, metrics={"v": 1.5}, elapsed_seconds=0.25)
        assert protocol.decode_payload(protocol.encode_payload(cell)) == cell
        decoded = protocol.decode_payload(protocol.encode_payload(outcome))
        assert decoded.cell == cell
        assert decoded.metrics == {"v": 1.5}

    def test_corrupt_payload_raises_protocol_error(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_payload("definitely!not!base64!pickle")


class TestAddresses:
    def test_parse_and_format(self):
        assert protocol.parse_address("tcp://127.0.0.1:8765") == ("127.0.0.1", 8765)
        assert protocol.parse_address(" tcp://host:0 ") == ("host", 0)
        assert protocol.format_address("h", 1) == "tcp://h:1"

    @pytest.mark.parametrize("bad", [
        "udp://127.0.0.1:1", "127.0.0.1:1", "tcp://:1", "tcp://h",
        "tcp://h:port", "tcp://h:99999", "tcp://h:-1",
    ])
    def test_rejects_malformed_addresses(self, bad):
        with pytest.raises(ValueError):
            protocol.parse_address(bad)
