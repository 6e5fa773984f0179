"""Gateway: the runtime's interface to one actual system.

A gateway exposes the asset's features of interest as named elements of
three kinds: properties (state that can be read, written, observed),
events (asset-raised notifications), and functions (invocable commands).
Connecting performs a handshake that must confirm the declared element
catalog exactly; afterwards the handle serializes requests and, while each
request reads its reply, routes asset-pushed samples and events into
per-element streams. The handle's stream table is the only record of what
the twin listens to on that gateway: the engine keeps none of its own.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Any, Mapping

from .errors import (
    AssetFault,
    CatalogMismatch,
    ConnectFailed,
    Disconnected,
    NoSuchElement,
    ProtocolError,
    ReadOnlyViolation,
    SchemaViolation,
    TwinError,
    WrongKind,
)
from .values import Value, check_value
from .wire import LineChannel, Transcript, connect_channel


class ElementKind(str, Enum):
    PROPERTY = "property"
    EVENT = "event"
    FUNCTION = "function"


class PropertyAccess(str, Enum):
    READ_ONLY = "ro"
    READ_WRITE = "rw"


@dataclass(frozen=True)
class GatewayElementDecl:
    """Declaration of one gateway element.

    The populated schema fields depend on the kind: properties carry
    ``value_type`` and ``access``; events carry ``payload_type``; functions
    carry ``arg_types`` and ``result_type``.
    """

    name: str
    kind: ElementKind
    value_type: str | None = None
    access: PropertyAccess | None = None
    payload_type: str | None = None
    arg_types: tuple[str, ...] | None = None
    result_type: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("element name must be non-empty")
        if self.kind is ElementKind.PROPERTY:
            ok = (self.value_type is not None and self.access is not None
                  and self.payload_type is None and self.arg_types is None
                  and self.result_type is None)
        elif self.kind is ElementKind.EVENT:
            ok = (self.payload_type is not None and self.value_type is None
                  and self.access is None and self.arg_types is None
                  and self.result_type is None)
        else:
            ok = (self.arg_types is not None and self.result_type is not None
                  and self.value_type is None and self.access is None
                  and self.payload_type is None)
        if not ok:
            raise ValueError(f"element {self.name!r}: schema fields do not match kind {self.kind.value}")

    def to_wire(self) -> dict[str, Any]:
        if self.kind is ElementKind.PROPERTY:
            schema: dict[str, Any] = {"type": self.value_type}
            return {"name": self.name, "kind": self.kind.value,
                    "value_schema": schema, "access": self.access.value}
        if self.kind is ElementKind.EVENT:
            return {"name": self.name, "kind": self.kind.value,
                    "value_schema": {"payload": self.payload_type}}
        return {"name": self.name, "kind": self.kind.value,
                "value_schema": {"args": list(self.arg_types), "result": self.result_type}}

    @classmethod
    def from_wire(cls, obj: dict[str, Any]) -> "GatewayElementDecl":
        try:
            kind = ElementKind(obj["kind"])
            schema = obj["value_schema"]
            if kind is ElementKind.PROPERTY:
                return cls(name=obj["name"], kind=kind, value_type=schema["type"],
                           access=PropertyAccess(obj["access"]))
            if kind is ElementKind.EVENT:
                return cls(name=obj["name"], kind=kind, payload_type=schema["payload"])
            return cls(name=obj["name"], kind=kind,
                       arg_types=tuple(schema["args"]), result_type=schema["result"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed catalog entry: {exc}") from exc


def property_decl(name: str, value_type: str,
                  access: PropertyAccess = PropertyAccess.READ_ONLY) -> GatewayElementDecl:
    return GatewayElementDecl(name=name, kind=ElementKind.PROPERTY,
                              value_type=value_type, access=access)


def event_decl(name: str, payload_type: str) -> GatewayElementDecl:
    return GatewayElementDecl(name=name, kind=ElementKind.EVENT, payload_type=payload_type)


def function_decl(name: str, arg_types: tuple[str, ...] | list[str],
                  result_type: str) -> GatewayElementDecl:
    return GatewayElementDecl(name=name, kind=ElementKind.FUNCTION,
                              arg_types=tuple(arg_types), result_type=result_type)


@dataclass(frozen=True)
class GatewayDescriptor:
    gateway_id: str
    endpoint: str
    elements: tuple[GatewayElementDecl, ...] = ()

    def __post_init__(self):
        if not self.gateway_id:
            raise ValueError("gateway_id must be non-empty")
        names = [e.name for e in self.elements]
        if len(names) != len(set(names)):
            raise ValueError(f"gateway {self.gateway_id}: duplicate element names")
        if not isinstance(self.elements, tuple):
            object.__setattr__(self, "elements", tuple(self.elements))

    def element(self, name: str) -> GatewayElementDecl | None:
        for decl in self.elements:
            if decl.name == name:
                return decl
        return None


@dataclass(frozen=True)
class ValueSample:
    element_name: str
    value: Value
    asset_timestamp: int
    sequence_no: int


@dataclass(frozen=True)
class EventOccurrence:
    name: str
    payload: Value
    asset_timestamp: int


class Stream:
    """Ordered stream of samples or event occurrences pushed by the asset.

    The handle appends pushes while it reads its connection, which it does
    only inside its own calls: a request routes every push that arrives
    before its reply. ``drain`` and ``empty`` look only at what has been
    routed so far; ``get`` waits for the next push by reading through the
    handle. When the connection dies the stream terminates and ``end_cause``
    distinguishes why ("disconnected", "protocol-error" or "closed").
    """

    def __init__(self, element: str, kind: ElementKind, handle: "GatewayHandle"):
        self.element = element
        self.kind = kind  # PROPERTY streams take updates, EVENT streams events
        self._handle = handle
        self._items: deque = deque()
        self._end_cause: str | None = None

    def _end(self, cause: str) -> None:
        if self._end_cause is None:
            self._end_cause = cause

    @property
    def end_cause(self) -> str | None:
        return self._end_cause

    @property
    def empty(self) -> bool:
        """Nothing has been routed here since the last ``drain``."""
        return not self._items

    def get(self, timeout: float | None = None):
        """Next item, or None if the stream ended or the timeout elapsed."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._items:
            if self._end_cause is not None or not self._handle._read_push(deadline):
                return None
        return self._items.popleft()

    def drain(self) -> list:
        """All items routed so far; reads nothing from the connection."""
        items = []
        while self._items:
            items.append(self._items.popleft())
        return items


# The one table of error codes on the wire. An asset replies with the code of
# the first class its error is an instance of, PROTOCOL for any other
# TwinError; the handle raises the class of the code it receives.
ERROR_CODES: dict[str, type[TwinError]] = {
    "NO_SUCH_ELEMENT": NoSuchElement,
    "WRONG_KIND": WrongKind,
    "READ_ONLY": ReadOnlyViolation,
    "SCHEMA": SchemaViolation,
    "ASSET_FAULT": AssetFault,
    "PROTOCOL": ProtocolError,
}


def check_reply(reply: dict[str, Any]) -> dict[str, Any]:
    """Return ``reply``, unless it is an ``error``: then raise the class its
    code names in ERROR_CODES, ProtocolError for any other code."""
    if reply.get("op") == "error":
        code = reply.get("code")
        exc_type = ERROR_CODES.get(code, ProtocolError) if isinstance(code, str) else ProtocolError
        raise exc_type(reply.get("message", "asset error"))
    return reply


class GatewayHandle:
    """Live connection to one asset. One outstanding request at a time.

    No thread reads the connection on the handle's behalf: each request
    reads its own reply and routes the pushes that arrive before it into
    the streams, and ``Stream.get`` reads when it waits. Pushes sent while
    nothing reads wait in the kernel's socket buffers, so a dead
    connection is seen by the next call that reads. Once disconnected the
    handle is dead and must be re-created.
    """

    def __init__(self, descriptor: GatewayDescriptor, channel: LineChannel):
        self.descriptor = descriptor
        self.gateway_id = descriptor.gateway_id
        self._channel = channel
        self._ids = itertools.count(1)
        self._lock = threading.Lock()  # one reader of the connection at a time
        self._streams: dict[str, Stream] = {}  # element names are unique
        # read-only view of the open streams by element name
        self.streams: Mapping[str, Stream] = MappingProxyType(self._streams)
        self._dead: TwinError | None = None

    # --- connection lifecycle ---

    @property
    def is_alive(self) -> bool:
        return self._dead is None

    def close(self) -> None:
        self._kill(Disconnected("handle closed"), cause="closed")

    def _kill(self, error: TwinError, cause: str | None = None) -> TwinError:
        """Mark the handle dead, end its streams and drop the connection;
        returns ``error``."""
        if self._dead is None:
            self._dead = error
            if cause is None:
                cause = "protocol-error" if isinstance(error, ProtocolError) else "disconnected"
            for stream in self._streams.values():
                stream._end(cause)
        self._channel.close()
        return error

    def _route(self, msg: dict[str, Any]) -> None:
        op = msg.get("op")
        if op not in ("update", "event"):
            raise ProtocolError(f"unexpected push op {op!r}")
        kind = ElementKind.PROPERTY if op == "update" else ElementKind.EVENT
        try:
            stream = self._streams.get(msg["element"])
            if stream is None or stream.kind is not kind:
                return  # nothing listens, or the push names the other kind
            if op == "update":
                item = ValueSample(element_name=msg["element"], value=msg["value"],
                                   asset_timestamp=msg["ts"], sequence_no=msg["seq"])
            else:
                item = EventOccurrence(name=msg["element"], payload=msg["payload"],
                                       asset_timestamp=msg["ts"])
        except (KeyError, TypeError) as exc:  # a missing field, an unhashable element
            raise ProtocolError(f"malformed push: {exc}") from exc
        stream._items.append(item)

    def _read_push(self, deadline: float | None) -> bool:
        """Read one push with no request outstanding and route it.

        False when the deadline passed or the handle is dead.
        """
        with self._lock:
            if self._dead is not None:
                return False
            try:
                msg = self._channel.recv(deadline)
                if "id" in msg:
                    raise ProtocolError(f"response id {msg['id']} answers no request")
                self._route(msg)
            except TimeoutError:
                return False
            except (Disconnected, ProtocolError) as exc:
                self._kill(exc)
                return False
            return True

    def _request(self, msg: dict[str, Any], timeout: float = 10.0) -> dict[str, Any]:
        with self._lock:
            if self._dead is not None:
                raise Disconnected(str(self._dead)) from self._dead
            try:
                reply = self._channel.request(dict(msg, id=next(self._ids)), timeout,
                                              self._route)
            except (Disconnected, ProtocolError) as exc:
                raise self._kill(exc)
        return check_reply(reply)

    # --- element lookups ---

    def _decl(self, name: str, kind: ElementKind) -> GatewayElementDecl:
        decl = self.descriptor.element(name)
        if decl is None:
            raise NoSuchElement(f"{self.gateway_id}: no element {name!r}")
        if decl.kind is not kind:
            raise WrongKind(f"{self.gateway_id}: {name!r} is a {decl.kind.value}, not a {kind.value}")
        return decl

    def catalog(self) -> list[GatewayElementDecl]:
        """Re-list the asset's element catalog over the wire."""
        reply = self._expect(self._request({"op": "list"}), "catalog")
        return [GatewayElementDecl.from_wire(e) for e in reply["catalog"]]

    @staticmethod
    def _expect(reply: dict[str, Any], op: str) -> dict[str, Any]:
        if reply.get("op") != op:
            raise ProtocolError(f"expected {op!r} response, got {reply.get('op')!r}")
        return reply

    # --- operations ---

    def read_property(self, name: str) -> ValueSample:
        self._decl(name, ElementKind.PROPERTY)
        reply = self._expect(self._request({"op": "read", "element": name}), "value")
        try:
            return ValueSample(element_name=name, value=reply["value"],
                               asset_timestamp=reply["ts"], sequence_no=reply["seq"])
        except KeyError as exc:
            raise ProtocolError(f"value response missing field {exc}") from exc

    def write_property(self, name: str, value: Value) -> None:
        decl = self._decl(name, ElementKind.PROPERTY)
        if decl.access is not PropertyAccess.READ_WRITE:
            raise ReadOnlyViolation(f"{self.gateway_id}: property {name!r} is read-only")
        check_value(value, decl.value_type)
        self._expect(self._request({"op": "write", "element": name, "value": value}), "ack")

    def observe_property(self, name: str) -> Stream:
        return self._open_stream(name, ElementKind.PROPERTY, "observe")

    def subscribe_event(self, name: str) -> Stream:
        return self._open_stream(name, ElementKind.EVENT, "subscribe")

    def _open_stream(self, name: str, kind: ElementKind, op: str) -> Stream:
        self._decl(name, kind)
        if self._dead is not None:
            raise Disconnected(str(self._dead))
        stream = self._streams.get(name)
        if stream is None or stream.end_cause is not None:
            stream = Stream(name, kind, self)
            # register before the request so no early push can be dropped
            self._streams[name] = stream
        try:
            self._expect(self._request({"op": op, "element": name}), "ack")
        except TwinError:
            self._streams.pop(name, None)
            raise
        return stream

    def invoke_function(self, name: str, args: list[Value]) -> Value:
        decl = self._decl(name, ElementKind.FUNCTION)
        if len(args) != len(decl.arg_types):
            raise SchemaViolation(f"{name!r} takes {len(decl.arg_types)} argument(s), got {len(args)}")
        for arg, arg_type in zip(args, decl.arg_types):
            check_value(arg, arg_type)
        reply = self._expect(self._request({"op": "invoke", "element": name, "args": args}), "result")
        result = reply.get("value")
        check_value(result, decl.result_type)
        return result

    def ping(self) -> None:
        """Round-trip barrier: all pushes sent before the pong are now routed."""
        self._expect(self._request({"op": "ping"}), "pong")


def connect(descriptor: GatewayDescriptor, timeout: float = 5.0,
            transcript: Transcript | None = None) -> GatewayHandle:
    """Connect to the asset behind ``descriptor`` and verify its catalog.

    The handshake exchanges the element catalog; any difference in names,
    kinds, schemas, or access fails the connect with CatalogMismatch.
    """
    try:
        channel = connect_channel(descriptor.endpoint, timeout=timeout, transcript=transcript)
    except ConnectionError as exc:
        raise ConnectFailed(str(exc)) from exc
    try:
        reply = channel.request({"op": "hello", "id": 0, "proto": "twin/1"}, timeout)
    except Disconnected as exc:
        raise ConnectFailed(f"handshake failed: {exc}") from exc
    try:
        if check_reply(reply).get("op") != "hello-ack":
            raise ProtocolError(f"unexpected handshake response {reply.get('op')!r}")
        advertised = [GatewayElementDecl.from_wire(e) for e in reply.get("catalog", [])]
        differences = _catalog_diff(descriptor.elements, advertised)
        if differences:
            raise CatalogMismatch(
                f"{descriptor.gateway_id}: catalog differs from descriptor "
                f"({'; '.join(differences)})", differences)
    except TwinError:
        channel.close()
        raise
    return GatewayHandle(descriptor, channel)


def _catalog_diff(declared, advertised) -> list[str]:
    declared_by_name = {d.name: d for d in declared}
    advertised_by_name = {d.name: d for d in advertised}
    diffs = []
    for name in sorted(set(declared_by_name) - set(advertised_by_name)):
        diffs.append(f"asset does not advertise {name!r}")
    for name in sorted(set(advertised_by_name) - set(declared_by_name)):
        diffs.append(f"asset advertises undeclared {name!r}")
    for name in sorted(set(declared_by_name) & set(advertised_by_name)):
        if declared_by_name[name] != advertised_by_name[name]:
            diffs.append(f"element {name!r} differs: declared {declared_by_name[name].to_wire()}, "
                         f"advertised {advertised_by_name[name].to_wire()}")
    return diffs
