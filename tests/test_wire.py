import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from twinrt.errors import ConnectFailed, Disconnected, ProtocolError
from twinrt.wire import (
    LineServer,
    Transcript,
    connect_channel,
    decode_message,
    encode_message,
    format_endpoint,
    parse_endpoint,
)


def test_encode_is_one_terminated_canonical_line():
    raw = encode_message({"op": "read", "id": 3, "element": "level"})
    assert raw == b'{"element":"level","id":3,"op":"read"}\n'


def test_round_trip():
    msg = {"op": "value", "id": 1, "element": "level", "value": 4.25, "ts": 100, "seq": 2}
    assert decode_message(encode_message(msg)) == msg


@pytest.mark.parametrize("line", [
    b"not json\n",
    b"[1,2,3]\n",              # not an object
    b'{"op":"value","value":NaN}\n',
    b'{"op":"value","value":Infinity}\n',
    b'{"op":"value","value":-Infinity}\n',
])
def test_decode_rejects(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


def test_encode_rejects_nan():
    with pytest.raises(ProtocolError):
        encode_message({"op": "value", "value": float("nan")})


def test_parse_endpoint():
    assert parse_endpoint("tcp://127.0.0.1:7777") == ("127.0.0.1", 7777)
    assert format_endpoint("127.0.0.1", 7777) == "tcp://127.0.0.1:7777"
    with pytest.raises(ProtocolError):
        parse_endpoint("udp://127.0.0.1:7777")
    with pytest.raises(ProtocolError):
        parse_endpoint("tcp://127.0.0.1")
    with pytest.raises(ProtocolError):
        parse_endpoint("tcp://:77")


def test_transcript_render():
    t = Transcript()
    t.record("C", b'{"op":"hello"}\n')
    t.record("S", b'{"op":"hello-ack"}\n')
    assert t.render() == 'C: {"op":"hello"}\nS: {"op":"hello-ack"}\n'


messages = st.fixed_dictionaries(
    {"op": st.sampled_from(["read", "write", "update", "event"])},
    optional={
        "id": st.integers(min_value=0, max_value=2**31),
        "element": st.text(max_size=16),
        "value": st.one_of(st.booleans(), st.integers(-1000, 1000),
                           st.floats(allow_nan=False, allow_infinity=False),
                           st.text(max_size=16)),
        "ts": st.integers(min_value=0, max_value=10**9),
        "seq": st.integers(min_value=1, max_value=10**6),
    },
)


@given(messages)
def test_any_wire_message_round_trips(msg):
    assert decode_message(encode_message(msg)) == msg


def _echo_server(on_close=lambda channel: None):
    """A LineServer that answers each message with ``{"op": "ack", "id": ...}``."""
    def answer(channel, msg):
        channel.send({"op": "ack", "id": msg.get("id")})

    return LineServer("tcp://127.0.0.1:0", answer, on_close)


def _serve_in_background(server):
    thread = threading.Thread(target=server.serve, daemon=True)
    thread.start()
    return thread


@pytest.mark.parametrize("line", [
    b'{"id": 1}\n',            # no op
    b'{"op": 5}\n',            # op not a string
])
def test_request_rejects_a_line_without_text_op(line):
    server = LineServer("tcp://127.0.0.1:0", lambda channel, msg: channel.send_raw(line))
    thread = _serve_in_background(server)
    client = connect_channel(server.endpoint)
    try:
        with pytest.raises(ProtocolError):
            client.request({"op": "ping", "id": 1}, timeout=5)
        assert client._sock.fileno() == -1  # the request closed the channel
    finally:
        client.close()
        server.close()
        thread.join(timeout=5)


class TestLineServer:
    def test_a_half_line_does_not_delay_another_connections_reply(self):
        server = _echo_server()
        thread = _serve_in_background(server)
        slow = connect_channel(server.endpoint)
        fast = connect_channel(server.endpoint)
        try:
            slow._sock.sendall(b'{"id":1,"op":"pi')  # the rest never comes
            started = time.monotonic()
            assert fast.request({"op": "ping", "id": 2}, timeout=5) == {"op": "ack", "id": 2}
            assert time.monotonic() - started < 1.0
            # the half line is kept: completing it gets its reply
            slow._sock.sendall(b'ng"}\n')
            assert slow.recv(time.monotonic() + 5) == {"op": "ack", "id": 1}
        finally:
            slow.close()
            fast.close()
            server.close()
            thread.join(timeout=5)

    def test_a_malformed_line_closes_only_its_own_connection(self):
        closed = []
        server = _echo_server(closed.append)
        thread = _serve_in_background(server)
        bad = connect_channel(server.endpoint)
        good = connect_channel(server.endpoint)
        try:
            assert good.request({"op": "ping", "id": 1}, timeout=5)["id"] == 1
            bad._sock.sendall(b"not json\n")
            with pytest.raises(Disconnected):
                bad.recv(time.monotonic() + 5)
            assert len(closed) == 1
            assert good.request({"op": "ping", "id": 2}, timeout=5)["id"] == 2
            assert len(closed) == 1
        finally:
            bad.close()
            good.close()
            server.close()
            thread.join(timeout=5)

    def test_serve_until_returns_by_its_deadline_without_traffic(self):
        server = _echo_server()
        try:
            started = time.monotonic()
            server.serve(started + 0.1)
            assert 0.1 <= time.monotonic() - started < 0.5
            server.serve(time.monotonic() - 1)  # a past deadline only polls
            assert time.monotonic() - started < 0.5
        finally:
            server.close()

    def test_serve_until_answers_what_is_waiting_and_returns(self):
        server = _echo_server()
        client = connect_channel(server.endpoint)
        try:
            client.send({"op": "ping", "id": 7})
            server.serve(time.monotonic())  # accepts, reads and answers in one call
            assert client.recv(time.monotonic() + 5) == {"op": "ack", "id": 7}
        finally:
            client.close()
            server.close()

    def test_close_from_another_thread_ends_serve_and_closes_every_socket(self):
        server = _echo_server()
        thread = _serve_in_background(server)
        clients = [connect_channel(server.endpoint) for _ in range(2)]
        try:
            for i, client in enumerate(clients):
                assert client.request({"op": "ping", "id": i}, timeout=5)["id"] == i
            sockets = [key.fileobj for key in server._selector.get_map().values()]
            assert len(sockets) == 4  # the listener, the wake-up socket and two connections
            server.close()
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert all(sock.fileno() == -1 for sock in sockets)
            for client in clients:
                with pytest.raises(Disconnected):
                    client.recv(time.monotonic() + 5)
        finally:
            for client in clients:
                client.close()

    def test_a_busy_address_is_a_connect_failure_naming_it(self):
        server = _echo_server()
        try:
            with pytest.raises(ConnectFailed, match=server.endpoint):
                LineServer(server.endpoint, lambda channel, msg: None)
        finally:
            server.close()
