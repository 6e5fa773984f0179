"""Byte-exact golden transcripts of the wire protocol against both assets.

Each scripted conversation exercises handshake, read, write, observe
(update pushes), events, and invoke. Pushes are awaited on the client side
before the next request is sent, so the recorded line order is
deterministic. The client's socket records the lines (see
``helpers.recorded_gateways``). Regenerate with TWIN_REGEN_GOLDENS=1 after
a deliberate protocol change.
"""

import os
import socket
import time
from contextlib import closing

import pytest

from conftest import GOLDEN_DIR
from helpers import (
    RecordingSocket,
    echo_descriptor,
    recorded_gateways,
    render_transcript,
    start_echo,
    start_tank,
    tank_descriptor,
)

from twinrt.gateway import connect


def _await(handle, stream, count: int) -> list:
    """Read pushes with no request outstanding until ``stream`` holds
    ``count`` items, and take them."""
    deadline = time.monotonic() + 5.0  # a push that never arrives: TimeoutError
    while len(stream._items) < count:
        handle._route(handle._channel.recv(deadline))
    return stream.drain()


def test_transcript_render():
    ours, theirs = socket.socketpair()
    lines: list = []
    with ours, theirs:
        recording = RecordingSocket(ours, lines)
        recording.sendall(b'{"op":"hello"}\n')
        theirs.sendall(b'{"op":"hello-')
        recording.recv(64)  # half a line is not recorded yet
        theirs.sendall(b'ack"}\n')
        recording.recv(64)
    assert render_transcript(lines) == 'C: {"op":"hello"}\nS: {"op":"hello-ack"}\n'


def tank_conversation() -> str:
    with closing(start_tank(step_ms=100)) as server, recorded_gateways() as lines:
        handle = connect(tank_descriptor(server.endpoint))
        handle.read_property("level")
        handle.write_property("valve", 1.0)
        samples = handle.observe_property("level")
        server.step(2)                      # +0.1 per step: updates at ts 100, 200
        _await(handle, samples, 2)
        events = handle.subscribe_event("overflow")
        server.force_set("level", 9.0)      # observed update + overflow event
        _await(handle, samples, 1)
        _await(handle, events, 1)
        handle.invoke_function("flush", [])  # level update pushed before the result
        _await(handle, samples, 1)
        handle.read_property("level")
        handle.close()
    return render_transcript(lines)


def echo_conversation() -> str:
    with closing(start_echo(step_ms=100)) as server, recorded_gateways() as lines:
        handle = connect(echo_descriptor(server.endpoint))
        handle.read_property("gain")
        handle.write_property("pad", "twin")
        handle.read_property("pad")
        handle.invoke_function("echo", ["ping"])
        handle.invoke_function("sum", [2.5, 0.25])
        counts = handle.observe_property("count")
        server.force_set("count", 42)
        _await(handle, counts, 1)
        pulses = handle.subscribe_event("pulse")
        server.raise_event("pulse", 7)
        _await(handle, pulses, 1)
        handle.close()
    return render_transcript(lines)


CONVERSATIONS = {
    "transcript_tank.txt": tank_conversation,
    "transcript_echo.txt": echo_conversation,
}


@pytest.mark.parametrize("name", sorted(CONVERSATIONS))
def test_transcript_matches_golden(name):
    rendered = CONVERSATIONS[name]()
    path = GOLDEN_DIR / name
    if os.environ.get("TWIN_REGEN_GOLDENS"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(rendered, encoding="utf-8")
    golden = path.read_text(encoding="utf-8")
    assert rendered == golden, f"transcript differs from {path}"


@pytest.mark.parametrize("name", sorted(CONVERSATIONS))
def test_transcripts_are_reproducible(name):
    assert CONVERSATIONS[name]() == CONVERSATIONS[name]()
