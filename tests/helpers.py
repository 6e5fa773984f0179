"""Shared builders for the test suite: assets, descriptors, and full rigs."""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

import pytest

from twinrt import gateway
from twinrt.asset import AssetServer, EchoModel, TankModel
from twinrt.data import DataManager
from twinrt.engine import Direction, Engine, Mapping, Schedule, Transform
from twinrt.gateway import (
    GatewayDescriptor,
    GatewayHandle,
    PropertyAccess,
    connect,
    event_decl,
    function_decl,
    property_decl,
)
from twinrt.models import (
    ModelElement,
    ModelingLanguage,
    ModelMode,
    ModelProperty,
    ModelRegistry,
    PropertyRule,
)
from twinrt.wire import LineChannel, LineServer, connect_channel

TANK_ELEMENTS = (
    property_decl("level", "real", PropertyAccess.READ_ONLY),
    property_decl("valve", "real", PropertyAccess.READ_WRITE),
    event_decl("overflow", "real"),
    function_decl("flush", [], "boolean"),
)

ECHO_ELEMENTS = (
    property_decl("pad", "text", PropertyAccess.READ_WRITE),
    property_decl("gain", "real", PropertyAccess.READ_WRITE),
    property_decl("count", "integer", PropertyAccess.READ_WRITE),
    property_decl("lit", "boolean", PropertyAccess.READ_WRITE),
    event_decl("pulse", "integer"),
    function_decl("echo", ["text"], "text"),
    function_decl("sum", ["real", "real"], "real"),
    function_decl("div", ["real", "real"], "real"),
)


def tank_descriptor(endpoint: str, gateway_id: str = "tank01") -> GatewayDescriptor:
    return GatewayDescriptor(gateway_id, endpoint, TANK_ELEMENTS)


def echo_descriptor(endpoint: str, gateway_id: str = "echo01") -> GatewayDescriptor:
    return GatewayDescriptor(gateway_id, endpoint, ECHO_ELEMENTS)


def start_tank(step_ms: int = 100, **params) -> AssetServer:
    return AssetServer(TankModel(**params), step_ms=step_ms)


def start_echo(step_ms: int = 100) -> AssetServer:
    return AssetServer(EchoModel(), step_ms=step_ms)


def nested(depth: int) -> list:
    """A list that nests ``depth`` levels deep, built without recursion."""
    value: list = []
    for _ in range(depth - 1):
        value = [value]
    return value


def deep_line(depth: int,
              fields: bytes = b'"element":"level","op":"update","seq":1,"ts":0') -> bytes:
    """A wire line of ``fields`` and a ``value`` that nests so that the line
    is ``depth`` levels deep, its object included: by default an update push."""
    inner = b"[" * (depth - 1) + b"]" * (depth - 1)
    return b"{" + fields + b',"value":' + inner + b"}\n"


def plain_reply(msg: dict) -> dict:
    """What a quiet tank answers: level 0.0 to reads, pong to pings, ack otherwise."""
    if msg["op"] == "read":
        return {"op": "value", "id": msg["id"], "element": msg["element"], "value": 0.0,
                "ts": 0, "seq": msg["id"]}
    return {"op": "pong" if msg["op"] == "ping" else "ack", "id": msg["id"]}


def late_first_reply() -> Callable[[dict], dict]:
    """A responder that answers the first ping only after a requester with a
    short timeout gave up, and every other request at once."""
    pinged = False

    def respond(msg: dict) -> dict:
        nonlocal pinged
        if msg["op"] == "ping" and not pinged:
            pinged = True
            time.sleep(0.5)
        return plain_reply(msg)

    return respond


# a start_scripted_tank catalog: the hello-ack carries no catalog field
NO_CATALOG = object()


def start_scripted_tank(respond: Callable[[dict], dict | list[dict]] = plain_reply,
                        requests: Counter | None = None,
                        catalog: Any = None) -> LineServer:
    """A fake tank asset that answers each request with ``respond(request)``.

    It advertises ``catalog`` (by default the tank's; any JSON value, or
    NO_CATALOG for none) in the handshake and
    pushes only what ``respond`` scripts: a list is sent message by message,
    so pushes can precede the reply, and bytes are sent as they are. A test
    can make single replies late, wrong or failing. If ``requests`` is
    given, it counts the requests after the handshake by op. No thread runs
    the server: a client in this process serves it while it waits on it.
    """
    if catalog is None:
        catalog = [decl.to_wire() for decl in TANK_ELEMENTS]

    def answer(channel: LineChannel, msg: dict) -> None:
        if msg["op"] == "hello":
            ack = {"op": "hello-ack", "id": msg["id"]}
            if catalog is not NO_CATALOG:
                ack["catalog"] = catalog
            channel.send(ack)
            return
        if requests is not None:
            requests[msg["op"]] += 1
        reply = respond(msg)
        for out in reply if isinstance(reply, list) else [reply]:
            if isinstance(out, bytes):
                channel.send_raw(out)
            else:
                channel.send(out)

    server = LineServer("tcp://127.0.0.1:0", answer)
    server.serve_from_clients()
    return server


class RecordingSocket:
    """A client socket that records its traffic for a golden transcript:
    each line it sends as ``C`` (a channel sends a message with one
    ``sendall``) and each complete line it receives as ``S``."""

    def __init__(self, sock, lines: list[tuple[str, bytes]]):
        self._sock = sock
        self._lines = lines
        self._partial = b""  # received bytes not yet ended by a newline

    def sendall(self, data: bytes) -> None:
        self._lines.append(("C", data))
        self._sock.sendall(data)

    def recv(self, size: int) -> bytes:
        chunk = self._sock.recv(size)
        *whole, self._partial = (self._partial + chunk).split(b"\n")
        self._lines.extend(("S", line + b"\n") for line in whole)
        return chunk

    def __getattr__(self, name):  # settimeout, shutdown, close
        return getattr(self._sock, name)


@contextmanager
def recorded_gateways():
    """Within the block, every gateway connection records its traffic
    into the list this yields."""
    lines: list[tuple[str, bytes]] = []

    def connect_recording(endpoint: str, timeout: float = 5.0) -> LineChannel:
        channel = connect_channel(endpoint, timeout)
        channel._sock = RecordingSocket(channel._sock, lines)
        return channel

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gateway, "connect_channel", connect_recording)
        yield lines


def render_transcript(lines: list[tuple[str, bytes]]) -> str:
    """One ``C: ...`` or ``S: ...`` text line per recorded wire line."""
    return "".join(f"{direction}: {raw.decode('utf-8').rstrip()}\n" for direction, raw in lines)


def tank_language() -> ModelingLanguage:
    return ModelingLanguage(
        language_id="tank-structure",
        element_kinds=frozenset({"Tank"}),
        property_schemas={"Tank": {"level": "real", "capacity": "real",
                                   "valve_target": "real"}},
        rules=(PropertyRule("level-within-capacity", "Tank", "level", "le",
                            other_property="capacity"),),
    )


def tank_elements(level: float = 0.0, capacity: float = 10.0,
                  valve_target: float = 0.0) -> list[ModelElement]:
    return [ModelElement("main", "Tank", {
        "level": ModelProperty("level", level),
        "capacity": ModelProperty("capacity", capacity),
        "valve_target": ModelProperty("valve_target", valve_target),
    })]


def build_registry(track_last_update: bool = True, online: bool = True) -> ModelRegistry:
    registry = ModelRegistry()
    registry.register_language(tank_language())
    registry.create_manager("plant")
    registry.create_model("plant", "tank", "tank-structure", tank_elements(),
                          track_last_update=track_last_update)
    if online:
        registry.set_mode("plant", "tank", ModelMode.ONLINE)
    return registry


@dataclass
class Rig:
    """A connected tank twin: asset server, gateway, registry, data, engine."""

    server: AssetServer
    handle: GatewayHandle
    registry: ModelRegistry
    data: DataManager
    engine: Engine

    def tick(self, count: int = 1, step_asset: bool = True):
        decisions = []
        for _ in range(count):
            if step_asset:
                self.server.step(1)
            decisions = self.engine.tick(self.engine.tick_count + 1)
        return decisions

    def close(self) -> None:
        self.engine.close()
        self.server.close()
        self.data.close()


def level_mapping(every: int = 1) -> Mapping:
    return Mapping("m-level", "tank", "main", "level", "tank01", "level",
                   Direction.AS_TO_DT, Schedule(every=every))


def valve_mapping(direction: Direction = Direction.BIDIRECTIONAL,
                  every: int = 1, transform: Transform = Transform()) -> Mapping:
    return Mapping("m-valve", "tank", "main", "valve_target", "tank01", "valve",
                   direction, Schedule(every=every), transform)


def build_rig(mappings=(), journal_path=None, step_ms: int = 100,
              track_last_update: bool = True, online: bool = True,
              sink: Callable[[dict], None] | None = None, **tank_params) -> Rig:
    registry = build_registry(track_last_update=track_last_update, online=online)
    data = DataManager(journal_path=journal_path, resolver=registry.resolve)
    engine = Engine(registry, data, sink=sink)
    server = start_tank(step_ms=step_ms, **tank_params)
    handle = connect(tank_descriptor(server.endpoint))
    engine.add_gateway(handle)
    for mapping in mappings:
        engine.add_mapping(mapping)
    return Rig(server=server, handle=handle, registry=registry, data=data, engine=engine)


def scripted_engine(respond: Callable[[dict], dict] = plain_reply,
                    requests: Counter | None = None, mappings=None):
    """An engine on the scripted tank with ``mappings`` (default: m-level)."""
    server = start_scripted_tank(respond, requests)
    registry = build_registry()
    engine = Engine(registry, DataManager(resolver=registry.resolve))
    handle = connect(tank_descriptor(server.endpoint))
    engine.add_gateway(handle)
    for mapping in mappings if mappings is not None else [level_mapping()]:
        engine.add_mapping(mapping)
    return server, handle, engine


def control(runtime, *msgs) -> list[dict]:
    """Send control requests to ``runtime`` and answer them on this thread;
    returns the replies."""
    channel = connect_channel(runtime.start_control("tcp://127.0.0.1:0"))
    try:
        replies = []
        for msg in msgs:
            channel.send(dict(msg, id=1))
            runtime.serve_control(0.2)
            replies.append(channel.recv(time.monotonic() + 5))
        return replies
    finally:
        channel.close()
