import socket
import threading
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import deep_line

from twinrt.asset import AssetServer, TankModel
from twinrt.errors import ConnectFailed, Disconnected, ProtocolError
from twinrt.values import MAX_DEPTH
from twinrt.wire import (
    MAX_LINE_BYTES,
    LineChannel,
    LineServer,
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
    b'{"op":"pong"} {"op":"pong"}\n',  # extra data
    b'\xef\xbb\xbf{"op":"pong"}\n',    # a leading UTF-8 BOM
])
def test_decode_rejects(line):
    with pytest.raises(ProtocolError):
        decode_message(line)


def test_a_line_nests_at_most_max_depth():
    assert decode_message(deep_line(MAX_DEPTH))["op"] == "update"
    for depth in (MAX_DEPTH + 1, 3000):
        with pytest.raises(ProtocolError, match=f"malformed message: .*deeper than {MAX_DEPTH}"):
            decode_message(deep_line(depth))


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


@pytest.mark.parametrize("line", [
    b'{"id": 1}\n',            # no op
    b'{"op": 5}\n',            # op not a string
])
def test_request_rejects_a_line_without_text_op(line):
    server = LineServer("tcp://127.0.0.1:0", lambda channel, msg: channel.send_raw(line))
    server.serve_from_clients()
    client = connect_channel(server.endpoint)
    try:
        with pytest.raises(ProtocolError):
            client.request({"op": "ping", "id": 1}, timeout=5)
        assert client._sock.fileno() == -1  # the request closed the channel
    finally:
        client.close()
        server.close()


def _read_one_line_of(length: int):
    """What a LineChannel reads when its peer sends one message whose line,
    newline excluded, is ``length`` bytes long, in one write."""
    raw = encode_message({"op": "x", "pad": ""})
    raw = encode_message({"op": "x", "pad": "x" * (length + 1 - len(raw))})
    assert len(raw) == length + 1
    ours, theirs = socket.socketpair()

    def write():
        try:
            theirs.sendall(raw)
        except OSError:
            pass  # the reader refused the line and closed its end

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    try:
        return LineChannel(ours).recv(deadline=time.monotonic() + 5)
    finally:
        ours.close()
        writer.join(timeout=5)
        theirs.close()
        assert not writer.is_alive()


@pytest.mark.parametrize("excess", [1, 23, 70000])
def test_a_line_over_the_limit_is_refused_wherever_its_newline_is_read(excess):
    # the newline of an over-long line may arrive in the read that crosses the limit
    with pytest.raises(ProtocolError, match="exceeds maximum length"):
        _read_one_line_of(MAX_LINE_BYTES + excess)


def test_a_line_of_exactly_the_limit_is_read():
    assert _read_one_line_of(MAX_LINE_BYTES)["op"] == "x"


class TestLineServer:
    def test_a_half_line_does_not_delay_another_connections_reply(self):
        server = _echo_server()
        server.serve_from_clients()
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

    def test_a_malformed_line_closes_only_its_own_connection(self):
        closed = []
        server = _echo_server(closed.append)
        server.serve_from_clients()
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

    def test_close_closes_every_socket(self):
        server = _echo_server()
        server.serve_from_clients()
        clients = [connect_channel(server.endpoint) for _ in range(2)]
        try:
            for i, client in enumerate(clients):
                assert client.request({"op": "ping", "id": i}, timeout=5)["id"] == i
            sockets = [key.fileobj for key in server._selector.get_map().values()]
            assert len(sockets) == 3  # the listener and two connections
            server.close()
            assert all(sock.fileno() == -1 for sock in sockets)
            for client in clients:
                with pytest.raises(Disconnected):
                    client.recv(time.monotonic() + 5)
        finally:
            for client in clients:
                client.close()

    @pytest.mark.parametrize("listen, connect", [("127.0.0.1", "localhost"),
                                                 ("0.0.0.0", "127.0.0.1")])
    def test_an_in_process_server_is_served_under_another_name_of_its_address(
            self, listen, connect):
        server = AssetServer(TankModel(), listen=f"tcp://{listen}:0")
        _host, port = parse_endpoint(server.endpoint)
        client = connect_channel(f"tcp://{connect}:{port}")
        try:
            assert client.request({"op": "ping", "id": 1}, timeout=1) == {"op": "pong", "id": 1}
        finally:
            client.close()
            server.close()

    def test_a_busy_address_is_a_connect_failure_naming_it(self):
        server = _echo_server()
        try:
            with pytest.raises(ConnectFailed, match=server.endpoint):
                LineServer(server.endpoint, lambda channel, msg: None)
        finally:
            server.close()
