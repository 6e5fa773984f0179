"""Newline-delimited message framing shared by assets, gateways, and the CLI.

One message per line: a single UTF-8 JSON object, canonically encoded
(sorted keys, compact separators) and terminated by ``\\n``. Requests carry
an ``id`` and are answered by exactly one response with the same ``id``;
messages without an ``id`` are unsolicited pushes. The full grammar lives in
docs/protocol.md alongside byte-exact golden transcripts.
Nothing here starts a thread: a ``LineServer`` runs one ``selectors`` loop
on its caller's thread, or on that of a client in this process that waits
on it, and writes each connection's buffer without blocking.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Any, Callable

from .errors import ConnectFailed, Disconnected, ProtocolError
from .values import canonical_json, strict_loads

MAX_LINE_BYTES = 1 << 20  # one message may not exceed 1 MiB
# a server drops a connection whose unsent bytes pass this, as a dead one
MAX_BACKLOG_BYTES = 1 << 24


def encode_message(msg: dict[str, Any]) -> bytes:
    """Serialize a message to its canonical wire form (one terminated line)."""
    try:
        return (canonical_json(msg) + "\n").encode("utf-8")
    except ValueError as exc:
        raise ProtocolError(f"unencodable message: {exc}") from exc


def decode_message(line: bytes) -> dict[str, Any]:
    """Parse one wire line into a message object, rejecting non-finite numbers.

    The ``op`` is not checked here: a server answers a request without a
    text ``op`` with an error reply, and ``LineChannel.request`` refuses a
    reply or push without one."""
    try:
        return strict_loads(line)
    except ValueError as exc:
        raise ProtocolError(f"malformed message: {exc}") from exc


def parse_endpoint(endpoint: str) -> tuple[str, int]:
    """Split a ``tcp://host:port`` address into (host, port)."""
    if not endpoint.startswith("tcp://"):
        raise ProtocolError(f"unsupported endpoint {endpoint!r}; expected tcp://host:port")
    rest = endpoint[len("tcp://"):]
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ProtocolError(f"endpoint {endpoint!r} lacks a port")
    try:
        return host, int(port)
    except ValueError as exc:
        raise ProtocolError(f"bad port in endpoint {endpoint!r}") from exc


def format_endpoint(host: str, port: int) -> str:
    return f"tcp://{host}:{port}"


class LineChannel:
    """Blocking line-oriented channel over a TCP socket.

    Sends are serialized by the caller; receives read one complete line at a
    time. EOF or transport errors surface as Disconnected. A server's end
    of a connection buffers what it sends, for its loop to write; a
    client's end whose server is in this process serves it while it reads.
    """

    def __init__(self, sock: socket.socket):
        self._sock = sock
        self._buf = b""
        self._out: bytearray | None = None  # a server's end: bytes its loop has yet to write
        self._peer: LineServer | None = None  # a client's end: the server it runs while it waits

    def send(self, msg: dict[str, Any]) -> None:
        self.send_raw(encode_message(msg))

    def send_raw(self, raw: bytes) -> None:
        if self._out is not None:
            if len(self._out) <= MAX_BACKLOG_BYTES:  # past it, the loop drops the connection
                self._out += raw
            return
        try:
            self._sock.sendall(raw)
        except OSError as exc:
            raise Disconnected(f"send failed: {exc}") from exc

    def recv(self, deadline: float | None = None) -> dict[str, Any]:
        """The next message. With a ``deadline`` (``time.monotonic()``), waiting
        past it raises TimeoutError and keeps any partial line buffered;
        without one, the call blocks until a line or EOF arrives."""
        while (msg := self._take()) is None:
            self._read(deadline)
        return msg

    def _take(self) -> dict[str, Any] | None:
        """The next buffered message, or None until a whole line is read."""
        line, sep, rest = self._buf.partition(b"\n")
        if len(line) > MAX_LINE_BYTES:
            raise ProtocolError("wire line exceeds maximum length")
        if not sep:
            return None
        self._buf = rest
        return decode_message(line + sep)

    def _read(self, deadline: float | None) -> None:
        if self._peer is not None:
            self._peer._serve(deadline, self._sock)
        timeout = None if deadline is None else deadline - time.monotonic()
        if timeout is not None and timeout <= 0:
            raise TimeoutError
        try:
            self._sock.settimeout(timeout)
            chunk = self._sock.recv(65536)
        except TimeoutError:
            raise
        except OSError as exc:
            raise Disconnected(f"recv failed: {exc}") from exc
        if not chunk:
            raise Disconnected("peer closed the connection")
        self._buf += chunk

    def request(self, msg: dict[str, Any], timeout: float,
                on_push: Callable[[dict[str, Any]], None] | None = None) -> dict[str, Any]:
        """Send ``msg`` (which carries its ``id``) and read until its reply.

        Messages without an ``id`` that arrive first are pushes: they go to
        ``on_push``, or are dropped when there is none. A message without a
        text ``op``, or a reply with another ``id``, is a ProtocolError; no
        reply within ``timeout`` seconds is
        Disconnected("request timed out"). Each fault, like any transport
        or protocol error, closes the channel, so a late reply can never be
        taken for the answer to a later request. An ``error`` reply is
        returned like any other; its meaning is the caller's.
        """
        deadline = time.monotonic() + timeout
        try:
            self.send(msg)
            while True:
                try:
                    reply = self.recv(deadline)
                except TimeoutError:
                    raise Disconnected("request timed out") from None
                if not isinstance(reply.get("op"), str):
                    raise ProtocolError("message lacks an op field")
                if "id" not in reply:
                    if on_push is not None:
                        on_push(reply)
                    continue
                if reply["id"] != msg["id"]:
                    raise ProtocolError(
                        f"response id {reply['id']} does not match request {msg['id']}")
                return reply
        except (Disconnected, ProtocolError):
            self.close()
            raise

    def close(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()


# each listener's bound (host, port): see LineServer.serve_from_clients
_SERVED_BY_CLIENTS: dict[tuple[str, int], LineServer] = {}


def connect_channel(endpoint: str, timeout: float = 5.0) -> LineChannel:
    """Open a client LineChannel to ``endpoint`` (tcp://host:port)."""
    host, port = parse_endpoint(endpoint)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionError(f"cannot connect to {endpoint}: {exc}") from exc
    # Nagle would hold a write behind an unacknowledged one for the peer's delayed ACK
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    sock.settimeout(timeout)
    channel = LineChannel(sock)
    peer_host, port = sock.getpeername()[:2]
    channel._peer = (_SERVED_BY_CLIENTS.get((peer_host, port))
                     or _SERVED_BY_CLIENTS.get(("0.0.0.0", port)))
    return channel


def _drop(*_args) -> None:
    """The handler of a closed server."""


class LineServer:
    """A TCP server whose ``serve`` loop hands each complete line to
    ``handler(channel, msg)``, which writes any reply itself. EOF, a malformed
    line, or Disconnected or ProtocolError out of the handler closes that
    connection alone and calls ``on_close(channel)``; so does a write that
    fails, or unsent bytes past MAX_BACKLOG_BYTES. A closed server lets go
    of both, which are often bound methods of the object that owns it."""

    def __init__(self, listen: str, handler: Callable[[LineChannel, dict[str, Any]], None],
                 on_close: Callable[[LineChannel], None] = _drop):
        host, port = parse_endpoint(listen)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
        except OSError as exc:
            self._listener.close()
            raise ConnectFailed(f"cannot listen on {listen}: {exc}") from exc
        self._address = self._listener.getsockname()
        self.endpoint = format_endpoint(host, self._address[1])
        self._handler, self._on_close = handler, on_close
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._conns: dict[LineChannel, int] = {}  # each connection: the events it waits for
        self._closed = False

    def serve_from_clients(self) -> None:
        """Until ``close()``, a client in this process that ``connect_channel``
        opened to this server, by any name of its address, runs this
        server's loop while it waits."""
        _SERVED_BY_CLIENTS[self._address] = self

    def serve(self, until: float | None = None) -> None:
        """Serve until ``close()``; with ``until`` (``time.monotonic()``), only
        until that time has passed and no socket is ready."""
        self._serve(until)

    def _serve(self, until: float | None, client: socket.socket | None = None) -> None:
        """Serve as ``serve`` does; with ``client``, a socket of this process,
        only until it is readable. A turn reads every ready socket, then
        writes every buffer. The first turn polls, so what was buffered
        before the call leaves with the replies it adds."""
        if self._closed:
            return
        if client is not None:
            self._selector.register(client, selectors.EVENT_READ)
        try:
            polled = False
            while not self._closed:
                timeout = None if until is None else max(until - time.monotonic(), 0)
                ready = self._selector.select(timeout if polled else 0)
                for key, events in ready:
                    if key.fileobj is self._listener:
                        conn, _addr = self._listener.accept()
                        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)  # see connect_channel
                        channel = LineChannel(conn)
                        channel._out = bytearray()
                        self._conns[channel] = selectors.EVENT_READ
                        self._selector.register(conn, selectors.EVENT_READ, channel)
                    elif key.data is not None and events & selectors.EVENT_READ:
                        self._on_readable(key.data)
                self._write()
                if (polled and not ready) or any(key.fileobj is client for key, _ in ready):
                    return
                polled = True
        finally:
            if client is not None and not self._closed:
                self._selector.unregister(client)

    def _on_readable(self, channel: LineChannel) -> None:
        try:
            channel._read(None)  # the socket is ready, so this does not block
            while (msg := channel._take()) is not None:
                self._handler(channel, msg)
        except (Disconnected, ProtocolError):
            self._hang_up(channel)

    def _write(self) -> None:
        """Write each connection's buffer as far as its socket takes it now;
        the rest waits for the socket to become writable."""
        for channel, events in list(self._conns.items()):
            out = channel._out
            if out:
                try:
                    if len(out) > MAX_BACKLOG_BYTES:
                        raise ConnectionError("too many unsent bytes")
                    del out[:channel._sock.send(out, socket.MSG_DONTWAIT)]
                except BlockingIOError:
                    pass
                except OSError:  # the peer is gone, or reads too slowly
                    self._hang_up(channel)
                    continue
            wanted = selectors.EVENT_READ | (selectors.EVENT_WRITE if out else 0)
            if wanted != events:
                self._conns[channel] = wanted
                self._selector.modify(channel._sock, wanted, channel)

    def _hang_up(self, channel: LineChannel) -> None:
        del self._conns[channel]
        self._selector.unregister(channel._sock)
        self._on_close(channel)
        channel.close()

    def close(self) -> None:
        """Close every socket."""
        self._closed = True
        if _SERVED_BY_CLIENTS.get(self._address) is self:
            del _SERVED_BY_CLIENTS[self._address]
        for channel in self._conns:
            channel.close()
        self._conns.clear()
        self._listener.close()
        self._selector.close()
        self._handler = self._on_close = _drop
