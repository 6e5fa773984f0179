"""Newline-delimited message framing shared by assets, gateways, and the CLI.

One message per line: a single UTF-8 JSON object, canonically encoded
(sorted keys, compact separators) and terminated by ``\\n``. Requests carry
an ``id`` and are answered by exactly one response with the same ``id``;
messages without an ``id`` are unsolicited pushes. The full grammar lives in
docs/protocol.md alongside byte-exact golden transcripts.
A server starts no thread: ``LineServer.serve`` reads every connection
from one ``selectors`` loop on the caller's thread.
"""

from __future__ import annotations

import selectors
import socket
import time
from typing import Any, Callable

from .errors import ConnectFailed, Disconnected, ProtocolError
from .values import canonical_json, strict_loads

MAX_LINE_BYTES = 1 << 20  # one message may not exceed 1 MiB


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


class Transcript:
    """Records raw wire lines for golden-file comparison.

    Lines are tagged with the direction seen from the recording side:
    ``C`` for client-sent bytes, ``S`` for server-sent bytes.
    """

    def __init__(self) -> None:
        self.lines: list[tuple[str, bytes]] = []

    def record(self, direction: str, raw: bytes) -> None:
        self.lines.append((direction, raw))

    def render(self) -> str:
        out = []
        for direction, raw in self.lines:
            out.append(f"{direction}: {raw.decode('utf-8').rstrip()}")
        return "\n".join(out) + "\n" if out else ""


class LineChannel:
    """Blocking line-oriented channel over a TCP socket.

    Sends are serialized by the caller; receives read one complete line at a
    time. EOF or transport errors surface as Disconnected.
    """

    def __init__(self, sock: socket.socket, transcript: Transcript | None = None):
        self._sock = sock
        self._buf = b""
        self._transcript = transcript  # recorded from the client side

    def send(self, msg: dict[str, Any]) -> None:
        self.send_raw(encode_message(msg))

    def send_raw(self, raw: bytes) -> None:
        if self._transcript is not None:
            self._transcript.record("C", raw)
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
        if not sep:
            if len(self._buf) > MAX_LINE_BYTES:
                raise ProtocolError("wire line exceeds maximum length")
            return None
        self._buf = rest
        msg = decode_message(line + sep)
        if self._transcript is not None:
            self._transcript.record("S", line + sep)
        return msg

    def _read(self, deadline: float | None) -> None:
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


def connect_channel(endpoint: str, timeout: float = 5.0,
                    transcript: Transcript | None = None) -> LineChannel:
    """Open a client LineChannel to ``endpoint`` (tcp://host:port)."""
    host, port = parse_endpoint(endpoint)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise ConnectionError(f"cannot connect to {endpoint}: {exc}") from exc
    sock.settimeout(timeout)
    return LineChannel(sock, transcript=transcript)


class LineServer:
    """A TCP server whose ``serve`` loop hands each complete line to
    ``handler(channel, msg)``, which writes any reply itself. EOF, a malformed
    line, or Disconnected or ProtocolError out of the handler closes that
    connection alone and calls ``on_close(channel)``."""

    def __init__(self, listen: str, handler: Callable[[LineChannel, dict[str, Any]], None],
                 on_close: Callable[[LineChannel], None] = lambda channel: None):
        host, port = parse_endpoint(listen)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind((host, port))
            self._listener.listen()
        except OSError as exc:
            self._listener.close()
            raise ConnectFailed(f"cannot listen on {listen}: {exc}") from exc
        self.endpoint = format_endpoint(host, self._listener.getsockname()[1])
        self._handler, self._on_close = handler, on_close
        self._wake_r, self._wake_w = socket.socketpair()  # see close()
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._selector.register(self._wake_r, selectors.EVENT_READ)
        self._serving = self._closed = False

    def serve(self, until: float | None = None) -> None:
        """Serve until ``close()``; with ``until`` (``time.monotonic()``), only
        until that time has passed and no socket is ready."""
        self._serving = True
        try:
            while not self._closed:
                ready = self._selector.select(None if until is None else until - time.monotonic())
                if not ready:
                    return
                for key, _ in ready:
                    if key.fileobj is self._listener:
                        conn, _addr = self._listener.accept()
                        self._selector.register(conn, selectors.EVENT_READ,
                                                LineChannel(conn))
                    elif key.data is not None:
                        self._on_readable(key.fileobj, key.data)
        finally:
            self._serving = False  # before reading _closed, which close() sets first
            if self._closed:
                self.close()

    def _on_readable(self, sock: socket.socket, channel: LineChannel) -> None:
        try:
            channel._read(None)  # the socket is ready, so this does not block
            while (msg := channel._take()) is not None:
                self._handler(channel, msg)
        except (Disconnected, ProtocolError):
            self._selector.unregister(sock)
            self._on_close(channel)
            channel.close()

    def close(self) -> None:
        """Close every socket; a ``serve`` on another thread does so as it returns."""
        self._closed = True
        self._wake_w.close()  # its peer in the selector reads EOF
        if not self._serving:
            for key in list((self._selector.get_map() or {}).values()):
                (key.data or key.fileobj).close()
            self._selector.close()
