"""Gateway: the runtime's interface to one actual system.

A gateway exposes the asset's features of interest as named elements of
three kinds: properties (state that can be read, written, observed),
events (asset-raised notifications), and functions (invocable commands).
Connecting performs a handshake that must confirm the declared element
catalog exactly; afterwards the handle serializes requests and, while each
request reads its reply, routes asset-pushed samples and events into
per-element streams. The handle's stream table is the only record of what
the twin listens to on that gateway: the engine keeps none of its own. A
stream ends when its handle dies, and the handle keeps why. Each element
declares the one type it carries: a property's value, an event's payload or
a function's result.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field
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
from .values import Value, fitted
from .wire import LineChannel, connect_channel


class ElementKind(str, Enum):
    PROPERTY = "property"
    EVENT = "event"
    FUNCTION = "function"


class PropertyAccess(str, Enum):
    READ_ONLY = "ro"
    READ_WRITE = "rw"


@dataclass(frozen=True, slots=True)
class GatewayElementDecl:
    """Declaration of one gateway element.

    ``value_type`` is the type the element carries: a property's value, an
    event's payload or a function's result. Properties also carry
    ``access``, and functions ``arg_types``.
    """

    name: str
    kind: ElementKind
    value_type: str
    access: PropertyAccess | None = None
    arg_types: tuple[str, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise ValueError(f"element name must be non-empty text, got {self.name!r}")
        if (self.value_type is None
                or (self.access is None) == (self.kind is ElementKind.PROPERTY)
                or (self.arg_types is None) == (self.kind is ElementKind.FUNCTION)):
            raise ValueError(f"element {self.name!r}: schema fields do not match kind {self.kind.value}")

    def fitted_args(self, args: list[Value]) -> list[Value]:
        """A function's ``args``, each fitted to its type: SchemaViolation unless they fit."""
        if len(args) != len(self.arg_types):
            raise SchemaViolation(f"{self.name!r} takes {len(self.arg_types)} argument(s), got {len(args)}")
        return [fitted(arg, arg_type) for arg, arg_type in zip(args, self.arg_types)]

    def to_wire(self) -> dict[str, Any]:
        if self.kind is ElementKind.PROPERTY:
            schema: dict[str, Any] = {"type": self.value_type}
            return {"name": self.name, "kind": self.kind.value,
                    "value_schema": schema, "access": self.access.value}
        if self.kind is ElementKind.EVENT:
            return {"name": self.name, "kind": self.kind.value,
                    "value_schema": {"payload": self.value_type}}
        return {"name": self.name, "kind": self.kind.value,
                "value_schema": {"args": list(self.arg_types), "result": self.value_type}}

    @classmethod
    def from_wire(cls, obj: dict[str, Any]) -> "GatewayElementDecl":
        try:
            kind = ElementKind(obj["kind"])
            schema = obj["value_schema"]
            if kind is ElementKind.PROPERTY:
                return cls(name=obj["name"], kind=kind, value_type=schema["type"],
                           access=PropertyAccess(obj["access"]))
            if kind is ElementKind.EVENT:
                return cls(name=obj["name"], kind=kind, value_type=schema["payload"])
            return cls(name=obj["name"], kind=kind, value_type=schema["result"],
                       arg_types=tuple(schema["args"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise ProtocolError(f"malformed catalog entry: {exc}") from exc


def property_decl(name: str, value_type: str,
                  access: PropertyAccess = PropertyAccess.READ_ONLY) -> GatewayElementDecl:
    return GatewayElementDecl(name=name, kind=ElementKind.PROPERTY,
                              value_type=value_type, access=access)


def event_decl(name: str, payload_type: str) -> GatewayElementDecl:
    return GatewayElementDecl(name=name, kind=ElementKind.EVENT, value_type=payload_type)


def function_decl(name: str, arg_types: tuple[str, ...] | list[str],
                  result_type: str) -> GatewayElementDecl:
    return GatewayElementDecl(name=name, kind=ElementKind.FUNCTION,
                              value_type=result_type, arg_types=tuple(arg_types))


@dataclass(frozen=True, slots=True)
class GatewayDescriptor:
    gateway_id: str
    endpoint: str
    elements: tuple[GatewayElementDecl, ...] = ()
    _by_name: dict[str, GatewayElementDecl] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.gateway_id:
            raise ValueError("gateway_id must be non-empty")
        object.__setattr__(self, "elements", tuple(self.elements))
        object.__setattr__(self, "_by_name", {e.name: e for e in self.elements})
        if len(self._by_name) != len(self.elements):
            raise ValueError(f"gateway {self.gateway_id}: duplicate element names")

    def element(self, name: str) -> GatewayElementDecl | None:
        return self._by_name.get(name) if isinstance(name, str) else None


@dataclass(frozen=True, slots=True)
class ValueSample:
    element_name: str
    value: Value
    asset_timestamp: int
    sequence_no: int


@dataclass(frozen=True, slots=True)
class EventOccurrence:
    name: str
    payload: Value
    asset_timestamp: int


class Stream:
    """Ordered stream of samples or event occurrences pushed by the asset.

    The handle appends pushes while it reads its connection, which it does
    only inside its own requests: a request routes every push that arrives
    before its reply. ``drain`` and ``empty`` look only at what has been
    routed so far. A stream ends when its handle dies: the handle's
    ``is_alive`` says so, and its next call raises ``Disconnected`` with the
    fault's message.
    """

    def __init__(self, element: str, kind: ElementKind, value_type: str):
        self.element = element
        self.kind = kind  # PROPERTY streams take updates, EVENT streams events
        self.value_type = value_type  # of an update's value or an event's payload
        self._items: deque = deque()

    @property
    def empty(self) -> bool:
        """Nothing has been routed here since the last ``drain``."""
        return not self._items

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

    The handle is used only from the thread that ticks the engine, control
    requests included, so nothing locks.

    No thread reads the connection on the handle's behalf: each request
    reads its own reply and routes the pushes that arrive before it into
    the streams; while it waits, it serves an asset in this process. Pushes
    sent between requests wait in the asset's buffers or the kernel's, so a
    dead connection is seen by the next request. Once
    disconnected the handle is dead and must be re-created. A dead handle
    keeps only the message of the fault that killed it: the fault's
    traceback holds frames that hold the handle.
    """

    def __init__(self, descriptor: GatewayDescriptor, channel: LineChannel):
        self.descriptor = descriptor
        self.gateway_id = descriptor.gateway_id
        self._channel = channel
        self._ids = itertools.count(1)
        self._streams: dict[str, Stream] = {}  # element names are unique
        # read-only view of the open streams by element name
        self.streams: Mapping[str, Stream] = MappingProxyType(self._streams)
        self._dead: str | None = None  # why the handle died

    # --- connection lifecycle ---

    @property
    def is_alive(self) -> bool:
        return self._dead is None

    def close(self) -> None:
        self._kill(Disconnected("handle closed"))

    def _kill(self, error: TwinError) -> TwinError:
        """Mark the handle dead, which ends its streams, and drop the
        connection; returns ``error``."""
        if self._dead is None:
            self._dead = str(error)
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
                item = ValueSample(msg["element"], fitted(msg["value"], stream.value_type),
                                   msg["ts"], msg["seq"])
            else:
                item = EventOccurrence(msg["element"],
                                       fitted(msg["payload"], stream.value_type), msg["ts"])
        # a missing field, an unhashable element, a value that does not fit
        except (KeyError, TypeError, SchemaViolation) as exc:
            raise ProtocolError(f"malformed push: {exc}") from exc
        stream._items.append(item)

    def _request(self, msg: dict[str, Any], timeout: float = 10.0) -> dict[str, Any]:
        if self._dead is not None:
            raise Disconnected(self._dead)
        try:
            reply = self._channel.request(dict(msg, id=next(self._ids)), timeout, self._route)
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

    @staticmethod
    def _expect(reply: dict[str, Any], op: str) -> dict[str, Any]:
        if reply.get("op") != op:
            raise ProtocolError(f"expected {op!r} response, got {reply.get('op')!r}")
        return reply

    # --- operations ---

    def read_property(self, name: str) -> ValueSample:
        decl = self._decl(name, ElementKind.PROPERTY)
        reply = self._expect(self._request({"op": "read", "element": name}), "value")
        try:
            return ValueSample(element_name=name, value=fitted(reply["value"], decl.value_type),
                               asset_timestamp=reply["ts"], sequence_no=reply["seq"])
        except KeyError as exc:
            raise ProtocolError(f"value response missing field {exc}") from exc

    def write_property(self, name: str, value: Value) -> Value:
        """Write ``value`` fitted to the property's type; returns the value written."""
        decl = self._decl(name, ElementKind.PROPERTY)
        if decl.access is not PropertyAccess.READ_WRITE:
            raise ReadOnlyViolation(f"{self.gateway_id}: property {name!r} is read-only")
        value = fitted(value, decl.value_type)
        self._expect(self._request({"op": "write", "element": name, "value": value}), "ack")
        return value

    def observe_property(self, name: str) -> Stream:
        return self._open_stream(name, ElementKind.PROPERTY, "observe")

    def subscribe_event(self, name: str) -> Stream:
        return self._open_stream(name, ElementKind.EVENT, "subscribe")

    def _open_stream(self, name: str, kind: ElementKind, op: str) -> Stream:
        decl = self._decl(name, kind)
        if self._dead is not None:
            raise Disconnected(self._dead)
        # register before the request so no early push can be dropped
        stream = self._streams.setdefault(name, Stream(name, kind, decl.value_type))
        try:
            self._expect(self._request({"op": op, "element": name}), "ack")
        except TwinError:
            self._streams.pop(name, None)
            raise
        return stream

    def invoke_function(self, name: str, args: list[Value]) -> Value:
        decl = self._decl(name, ElementKind.FUNCTION)
        args = decl.fitted_args(args)
        reply = self._expect(self._request({"op": "invoke", "element": name, "args": args}), "result")
        return fitted(reply.get("value"), decl.value_type)

    def ping(self) -> None:
        """Round-trip barrier: all pushes sent before the pong are now routed."""
        self._expect(self._request({"op": "ping"}), "pong")


def connect(descriptor: GatewayDescriptor, timeout: float = 5.0) -> GatewayHandle:
    """Connect to the asset behind ``descriptor`` and verify its catalog.

    The handshake is the one exchange of the element catalog: a hello-ack
    whose catalog is not a list of element objects fails the connect with
    ProtocolError, and any difference in names, kinds, schemas, or access
    with CatalogMismatch. Either closes the channel.
    """
    try:
        channel = connect_channel(descriptor.endpoint, timeout=timeout)
    except ConnectionError as exc:
        raise ConnectFailed(str(exc)) from exc
    try:
        reply = channel.request({"op": "hello", "id": 0, "proto": "twin/1"}, timeout)
    except Disconnected as exc:
        raise ConnectFailed(f"handshake failed: {exc}") from exc
    try:
        if check_reply(reply).get("op") != "hello-ack":
            raise ProtocolError(f"unexpected handshake response {reply.get('op')!r}")
        catalog = reply.get("catalog")
        if not isinstance(catalog, list):
            raise ProtocolError(f"hello-ack catalog must be a list, got {catalog!r}")
        advertised = [GatewayElementDecl.from_wire(e) for e in catalog]
        differences = _catalog_diff(descriptor._by_name, advertised)
        if differences:
            raise CatalogMismatch(
                f"{descriptor.gateway_id}: catalog differs from descriptor "
                f"({'; '.join(differences)})", differences)
    except TwinError:
        channel.close()
        raise
    return GatewayHandle(descriptor, channel)


def _catalog_diff(declared_by_name, advertised) -> list[str]:
    advertised_by_name = {d.name: d for d in advertised}
    diffs = [f"asset advertises {name!r} more than once"
             for name, count in sorted(Counter(d.name for d in advertised).items()) if count > 1]
    for name in sorted(set(declared_by_name) - set(advertised_by_name)):
        diffs.append(f"asset does not advertise {name!r}")
    for name in sorted(set(advertised_by_name) - set(declared_by_name)):
        diffs.append(f"asset advertises undeclared {name!r}")
    for name in sorted(set(declared_by_name) & set(advertised_by_name)):
        if declared_by_name[name] != advertised_by_name[name]:
            diffs.append(f"element {name!r} differs: declared {declared_by_name[name].to_wire()}, "
                         f"advertised {advertised_by_name[name].to_wire()}")
    return diffs
