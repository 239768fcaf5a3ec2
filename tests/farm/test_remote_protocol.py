"""Tests for the remote-farm frame protocol (framing, refs, addresses)."""

import json
import socket
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.farm.remote.protocol import (
    MAX_FRAME_BYTES,
    ProtocolError,
    pack,
    parse_address,
    recv_frame,
    resolve_runner,
    runner_ref,
    send_frame,
    unpack,
)

from tests.farm.runners import echo_runner


def _socket_pair():
    server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    server.bind(("127.0.0.1", 0))
    server.listen(1)
    client = socket.create_connection(server.getsockname(), timeout=5.0)
    peer, _ = server.accept()
    server.close()
    return client, peer


class TestFraming:
    def test_round_trip(self):
        client, peer = _socket_pair()
        try:
            frames = [
                {"type": "hello", "role": "worker", "version": 1},
                {"type": "unit", "key": "die/0001", "attempt": 2,
                 "unit": pack({"nested": [1, 2, 3]})},
                {"type": "idle", "poll_s": 0.25},
            ]
            for frame in frames:
                send_frame(client, frame)
            for frame in frames:
                assert recv_frame(peer) == frame
        finally:
            client.close()
            peer.close()

    def test_clean_eof_is_none(self):
        client, peer = _socket_pair()
        client.close()
        try:
            assert recv_frame(peer) is None
        finally:
            peer.close()

    def test_mid_frame_eof_raises(self):
        client, peer = _socket_pair()
        try:
            # A length prefix promising 100 bytes, then nothing.
            client.sendall((100).to_bytes(4, "big") + b"partial")
            client.close()
            with pytest.raises(ProtocolError):
                recv_frame(peer)
        finally:
            peer.close()

    def test_oversized_length_prefix_rejected(self):
        client, peer = _socket_pair()
        try:
            client.sendall((MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(ProtocolError):
                recv_frame(peer)
        finally:
            client.close()
            peer.close()

    def test_non_object_body_rejected(self):
        client, peer = _socket_pair()
        try:
            body = b"[1, 2, 3]"
            client.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError):
                recv_frame(peer)
        finally:
            client.close()
            peer.close()

    def test_large_frame_travels_whole(self):
        client, peer = _socket_pair()
        try:
            frame = {"type": "result", "outcome": "x" * 300_000}
            done = []
            thread = threading.Thread(
                target=lambda: done.append(recv_frame(peer))
            )
            thread.start()
            send_frame(client, frame)
            thread.join(timeout=10.0)
            assert done and done[0] == frame
        finally:
            client.close()
            peer.close()


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
    max_leaves=20,
)
_PREFIXED_BODIES = (
    st.binary()
    | st.text().map(str.encode)
    | _JSON.map(lambda value: json.dumps(value).encode())
).map(lambda body: len(body).to_bytes(4, "big") + body)


@settings(max_examples=200, deadline=None)
@given(st.binary() | _PREFIXED_BODIES)
@example((5000).to_bytes(4, "big") + b"9" * 5000)  # past the int-digit limit
@example((100_000).to_bytes(4, "big") + b"[" * 100_000)  # too deeply nested
def test_decoder_accepts_arbitrary_bytes(data):
    """Whatever arrives, ``recv_frame`` yields a dict, ``None`` (clean EOF)
    or raises :class:`ProtocolError` — never another error, never a hang."""
    sender, receiver = socket.socketpair()
    receiver.settimeout(10.0)

    def feed():
        try:
            sender.sendall(data)
        except OSError:  # the receiver gave up early (oversized prefix)
            pass
        finally:
            sender.close()

    thread = threading.Thread(target=feed)
    thread.start()
    try:
        frame = recv_frame(receiver)
        assert frame is None or isinstance(frame, dict)
    except ProtocolError:
        pass
    finally:
        receiver.close()
        thread.join(timeout=10.0)


class TestPack:
    def test_pickle_round_trip(self):
        payload = {"values": [1.5, None, "x"], "t": (1, 2)}
        assert unpack(pack(payload)) == payload


class TestRunnerRef:
    def test_module_level_callable_round_trips(self):
        ref = runner_ref(echo_runner)
        assert ref == "tests.farm.runners:echo_runner"
        assert resolve_runner(ref) is echo_runner

    def test_nested_callable_rejected(self):
        def local(unit):
            return unit

        with pytest.raises(ValueError):
            runner_ref(local)
        with pytest.raises(ValueError):
            runner_ref(lambda unit: unit)

    def test_malformed_refs_rejected(self):
        for ref in ("no-colon", ":name", "mod:", "mod:a.b"):
            with pytest.raises(ProtocolError):
                resolve_runner(ref)

    def test_non_callable_target_rejected(self):
        with pytest.raises(ProtocolError):
            resolve_runner("tests.farm.runners:os")


class TestParseAddress:
    def test_host_port(self):
        assert parse_address("127.0.0.1:9000") == ("127.0.0.1", 9000)
        assert parse_address("farm.host:1") == ("farm.host", 1)

    def test_rejects_malformed(self):
        for text in ("nohost", ":9000", "host:", "host:abc", "host:0",
                     "host:70000"):
            with pytest.raises(ValueError):
                parse_address(text)
