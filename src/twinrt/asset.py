"""Simulated assets: a 1-D tank and a protocol-test echo device.

Both are served over the gateway wire protocol by AssetServer and can run as
a separate process (``twin-asset``). The tank integrates
``level' = inflow * valve - outflow`` with explicit Euler at a fixed step and
raises an ``overflow`` event when the level crosses its threshold upward.
The echo asset has passive typed properties and pure functions, including a
deliberately unguarded ``div`` that can put non-finite numbers on the wire.

Assets never read a clock: dynamics advance only on explicit step commands,
and the reported timestamp is ``steps_taken * step_ms``. Besides the gateway
ops, the server answers simulation-control ops (``ctl.step``, ``ctl.set``,
``ctl.raise``, ``ctl.state``) used by test harnesses and the scenario runner
to stand in for the physical world. No server starts a thread: an asset
in this process is served by whichever of its clients waits on it, and
``twin-asset`` serves its asset on its main thread.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from typing import Any, Callable

from .errors import (
    AssetFault,
    NoSuchElement,
    ProtocolError,
    ReadOnlyViolation,
    TwinError,
    WrongKind,
)
from .gateway import (
    ERROR_CODES,
    ElementKind,
    GatewayElementDecl,
    PropertyAccess,
    check_reply,
    event_decl,
    function_decl,
    property_decl,
)
from .values import Value, fitted
from .wire import LineChannel, LineServer, connect_channel


def _lax_encode(msg: dict[str, Any]) -> bytes:
    # The asset is the untrusted side: it serializes whatever it computed,
    # including non-finite floats, which the gateway must then reject.
    return (json.dumps(msg, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
            + "\n").encode("utf-8")


class AssetModel:
    """State and behavior of one simulated asset.

    ``catalog`` is a class attribute: a model class declares its elements
    once, and every instance serves the same ones.
    """

    catalog: tuple[GatewayElementDecl, ...] = ()
    _decls: dict[str, GatewayElementDecl] = {}  # catalog by element name

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._decls = {d.name: d for d in cls.catalog}

    def __init__(self) -> None:
        self._pending_events: list[tuple[str, Value]] = []

    def _decl(self, name: str, kind: ElementKind) -> GatewayElementDecl:
        """The declaration of element ``name``, which must be of ``kind``."""
        # a name off the wire may be any JSON value, a list or an object too
        d = self._decls.get(name) if isinstance(name, str) else None
        if d is None:
            raise NoSuchElement(f"no element {name!r}")
        if d.kind is not kind:
            raise WrongKind(f"{name!r} is a {d.kind.value}")
        return d

    def read(self, name: str) -> Value:
        self._decl(name, ElementKind.PROPERTY)
        return self.state()[name]

    def write(self, name: str, value: Value) -> None:
        if self._decl(name, ElementKind.PROPERTY).access is not PropertyAccess.READ_WRITE:
            raise ReadOnlyViolation(f"property {name!r} is read-only")
        self.force_set(name, value)

    def force_set(self, name: str, value: Value) -> None:
        """Backdoor standing in for the physical world: ignores access mode."""
        d = self._decl(name, ElementKind.PROPERTY)
        self._set(name, fitted(value, d.value_type))

    def raise_event(self, name: str, payload: Value) -> None:
        d = self._decl(name, ElementKind.EVENT)
        self._pending_events.append((name, fitted(payload, d.value_type)))

    def pop_events(self) -> list[tuple[str, Value]]:
        events, self._pending_events = self._pending_events, []
        return events

    def state(self) -> dict[str, Value]:
        raise NotImplementedError

    def _set(self, name: str, value: Value) -> None:
        raise NotImplementedError

    def invoke(self, name: str, args: list[Value]) -> Value:
        args = self._decl(name, ElementKind.FUNCTION).fitted_args(args)
        try:
            return self._invoke(name, args)
        except TwinError:
            raise
        except Exception as exc:  # execution failure inside the asset
            raise AssetFault(f"{name} failed: {exc}") from exc

    def _invoke(self, name: str, args: list[Value]) -> Value:
        raise NotImplementedError

    def step(self, dt: float) -> None:
        """Advance the asset's dynamics by one fixed step of dt seconds."""


def _number(name: str, value) -> float:
    """A model parameter as written: a finite int or float, never a bool or text."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"parameter {name} must be a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, ±inf, or an int no float holds
        raise ValueError(f"parameter {name} must be a finite number, got {value!r}")
    return float(value)


class TankModel(AssetModel):
    """Tank filled through a valve: level' = inflow * valve - outflow.

    Level is clamped to [0, capacity]. Crossing ``overflow_level`` upward
    raises one ``overflow`` event carrying the level; the event re-arms once
    the level drops back below the threshold. Optional gaussian noise on the
    level uses the seeded generator.
    """

    def __init__(self, level: float = 0.0, valve: float = 0.0, capacity: float = 10.0,
                 inflow: float = 1.0, outflow: float = 0.0, overflow_level: float = 8.0,
                 noise: float = 0.0, seed: int = 0):
        super().__init__()
        self.level = _number("level", level)
        self.valve = _number("valve", valve)
        self.capacity = _number("capacity", capacity)
        self.inflow = _number("inflow", inflow)
        self.outflow = _number("outflow", outflow)
        self.overflow_level = _number("overflow_level", overflow_level)
        self.noise = _number("noise", noise)
        self._rng = random.Random(seed)

    catalog = (
        property_decl("level", "real", PropertyAccess.READ_ONLY),
        property_decl("valve", "real", PropertyAccess.READ_WRITE),
        event_decl("overflow", "real"),
        function_decl("flush", [], "boolean"),
    )

    def state(self) -> dict[str, Value]:
        return {"level": self.level, "valve": self.valve}

    def _set(self, name: str, value: Value) -> None:
        prev = self.level
        if name == "level":
            self.level = value  # fitted to real, as every value the asset receives
            self._check_overflow(prev)
        else:
            self.valve = value

    def step(self, dt: float) -> None:
        prev = self.level
        level = self.level + dt * (self.inflow * self.valve - self.outflow)
        if self.noise:
            level += self._rng.gauss(0.0, self.noise)
        self.level = min(max(level, 0.0), self.capacity)
        self._check_overflow(prev)

    def _check_overflow(self, prev: float) -> None:
        if prev < self.overflow_level <= self.level:
            self._pending_events.append(("overflow", self.level))

    def _invoke(self, name: str, args: list[Value]) -> Value:
        # only "flush" is declared
        self.level = 0.0
        return True


class EchoModel(AssetModel):
    """Passive device: typed read-write properties and pure functions.

    ``div`` performs an unguarded float division, so div(0, 0) or div(x, 0)
    puts NaN or Infinity on the wire — the gateway must refuse it.
    """

    def __init__(self, seed: int = 0):
        super().__init__()
        self._props: dict[str, Value] = {"pad": "", "gain": 1.0, "count": 0, "lit": False}

    catalog = (
        property_decl("pad", "text", PropertyAccess.READ_WRITE),
        property_decl("gain", "real", PropertyAccess.READ_WRITE),
        property_decl("count", "integer", PropertyAccess.READ_WRITE),
        property_decl("lit", "boolean", PropertyAccess.READ_WRITE),
        event_decl("pulse", "integer"),
        function_decl("echo", ["text"], "text"),
        function_decl("sum", ["real", "real"], "real"),
        function_decl("div", ["real", "real"], "real"),
    )

    def state(self) -> dict[str, Value]:
        return dict(self._props)

    def _set(self, name: str, value: Value) -> None:
        self._props[name] = value

    def _invoke(self, name: str, args: list[Value]) -> Value:
        if name == "echo":
            return args[0]
        if name == "sum":
            return args[0] + args[1]
        a, b = args
        if b == 0:
            return float("nan") if a == 0 else (float("inf") if a > 0 else float("-inf"))
        return a / b


MODELS = {"tank": TankModel, "echo": EchoModel}


class _Session:
    def __init__(self, channel: LineChannel):
        self.channel = channel
        # the properties it observes and the events it subscribes to; catalog
        # names are unique across kinds
        self.listening: set[str] = set()
        self._seqs: dict[str, int] = {}

    def next_seq(self, element: str) -> int:
        seq = self._seqs.get(element, 0) + 1
        self._seqs[element] = seq
        return seq

    def send(self, msg: dict[str, Any]) -> None:
        """Buffer one push or reply, for the server's loop to write."""
        self.channel.send_raw(_lax_encode(msg))


class AssetServer:
    """Serves one asset model over the wire protocol, starting no thread.

    A client in this process that waits on the server runs its loop, so the
    asset and its in-process clients share one thread. Every mutation goes
    through ``_mutate``, which pushes the changed properties (in name order)
    and then the raised events to the sessions that listen, before the
    mutating request is acknowledged, so a later ping response is a barrier
    for all prior pushes on the same connection. Pushes and replies go into
    the session's buffer, which the loop writes at the end of its turn: the
    pushes an in-process ``step`` or ``force_set`` made since the last turn
    leave with the next reply, in one write. A session that stops reading
    holds up no other; once its unsent bytes pass ``wire.MAX_BACKLOG_BYTES``
    it is dropped.
    """

    def __init__(self, model: AssetModel, listen: str = "tcp://127.0.0.1:0",
                 step_ms: int = 100):
        if step_ms <= 0:
            raise ValueError(f"step_ms must be positive, got {step_ms}")
        self._model = model
        self._step_ms = int(step_ms)
        self._steps = 0
        self._sessions: dict[LineChannel, _Session] = {}
        self._server = LineServer(listen, self._handle, on_close=self._forget)
        self._server.serve_from_clients()
        self.endpoint = self._server.endpoint

    @property
    def timestamp(self) -> int:
        return self._steps * self._step_ms

    @property
    def model(self) -> AssetModel:
        return self._model

    def close(self) -> None:
        self._server.close()  # closes every session's channel
        self._sessions.clear()

    # --- direct control for in-process owners (scenario runner, tests) ---

    def step(self, count: int = 1) -> None:
        for _ in range(count):
            self._mutate(self._advance)

    def _advance(self) -> None:
        self._model.step(self._step_ms / 1000.0)
        self._steps += 1

    def force_set(self, name: str, value: Value) -> None:
        self._mutate(lambda: self._model.force_set(name, value))

    def raise_event(self, name: str, payload: Value) -> None:
        self._mutate(lambda: self._model.raise_event(name, payload))

    def state(self) -> dict[str, Value]:
        return self._model.state()

    # --- push fan-out ---

    def _mutate(self, change: Callable[[], Value]) -> Value:
        """Apply one change and push what it changed; returns its result."""
        before = self._model.state()
        result = change()
        self._flush(before)
        return result

    def _flush(self, before: dict[str, Value]) -> None:
        after = self._model.state()
        for name in sorted(after):
            if after[name] != before.get(name):
                for session in self._sessions.values():
                    if name in session.listening:
                        session.send({"op": "update", "element": name,
                                      "value": after[name], "ts": self.timestamp,
                                      "seq": session.next_seq(name)})
        for event_name, payload in self._model.pop_events():
            for session in self._sessions.values():
                if event_name in session.listening:
                    session.send({"op": "event", "element": event_name,
                                  "payload": payload, "ts": self.timestamp})

    # --- request handling ---

    def _forget(self, channel: LineChannel) -> None:
        self._sessions.pop(channel, None)

    def _handle(self, channel: LineChannel, msg: dict[str, Any]) -> None:
        session = self._sessions.get(channel)
        if session is None:
            session = self._sessions[channel] = _Session(channel)
        try:
            reply = self._dispatch(session, msg)
        except TwinError as exc:
            code = next((c for c, cls in ERROR_CODES.items() if isinstance(exc, cls)),
                        "PROTOCOL")
            reply = {"op": "error", "code": code, "message": str(exc)}
        reply["id"] = msg.get("id")
        session.send(reply)

    def _dispatch(self, session: _Session, msg: dict[str, Any]) -> dict[str, Any]:
        op = msg.get("op")
        model = self._model
        if op == "hello":
            if msg.get("proto") != "twin/1":
                raise ProtocolError(f"unsupported protocol {msg.get('proto')!r}")
            return {"op": "hello-ack", "catalog": [d.to_wire() for d in model.catalog]}
        if op == "ping":
            return {"op": "pong"}
        if op == "read":
            name = _element_of(msg)
            value = model.read(name)
            return {"op": "value", "element": name, "value": value,
                    "ts": self.timestamp, "seq": session.next_seq(name)}
        if op == "write":
            name = _element_of(msg)
            self._mutate(lambda: model.write(name, msg.get("value")))
            return {"op": "ack", "ts": self.timestamp}
        if op == "observe":
            name = msg.get("element", "")
            model._decl(name, ElementKind.PROPERTY)
            session.listening.add(name)
            return {"op": "ack", "ts": self.timestamp}
        if op == "subscribe":
            name = msg.get("element", "")
            model._decl(name, ElementKind.EVENT)
            session.listening.add(name)
            return {"op": "ack", "ts": self.timestamp}
        if op == "invoke":
            name = _element_of(msg)
            args = msg.get("args", [])
            if not isinstance(args, list):
                raise ProtocolError("args must be a list")
            result = self._mutate(lambda: model.invoke(name, args))
            return {"op": "result", "value": result, "ts": self.timestamp}
        if op == "ctl.step":
            count = msg.get("count", 1)
            if isinstance(count, bool) or not isinstance(count, int) or count < 1:
                raise ProtocolError(f"count must be a positive integer, got {count!r}")
            self.step(count)
            return {"op": "ack", "ts": self.timestamp}
        if op == "ctl.set":
            self.force_set(_element_of(msg), msg.get("value"))
            return {"op": "ack", "ts": self.timestamp}
        if op == "ctl.raise":
            self.raise_event(_element_of(msg), msg.get("payload"))
            return {"op": "ack", "ts": self.timestamp}
        if op == "ctl.state":
            return {"op": "state", "properties": self.state(), "ts": self.timestamp}
        raise ProtocolError(f"unknown op {op!r}")


def _element_of(msg: dict[str, Any]) -> str:
    name = msg.get("element")
    if not isinstance(name, str):
        raise ProtocolError("missing element field")
    return name


class AssetControl:
    """Simulation-control client for an asset running elsewhere.

    Used by the scenario runner and tests to play the physical world:
    stepping dynamics, forcing property values, raising events.
    """

    def __init__(self, endpoint: str, timeout: float = 5.0):
        self._channel = connect_channel(endpoint, timeout=timeout)
        self._timeout = timeout
        self._ids = itertools.count(1)

    def _request(self, msg: dict[str, Any]) -> dict[str, Any]:
        # this client never observes or subscribes, so no push can arrive
        return check_reply(self._channel.request(dict(msg, id=next(self._ids)), self._timeout))

    def step(self, count: int = 1) -> None:
        self._request({"op": "ctl.step", "count": count})

    def force_set(self, element: str, value: Value) -> None:
        self._request({"op": "ctl.set", "element": element, "value": value})

    def raise_event(self, element: str, payload: Value) -> None:
        self._request({"op": "ctl.raise", "element": element, "payload": payload})

    def state(self) -> dict[str, Value]:
        return self._request({"op": "ctl.state"})["properties"]

    def close(self) -> None:
        self._channel.close()


def parse_param(text: str) -> tuple[str, Value]:
    """Parse a --param k=v flag; v is tried as bool, int, float, then text."""
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ValueError(f"--param expects k=v, got {text!r}")
    if raw.lower() in ("true", "false"):
        return key, raw.lower() == "true"
    for parse in (int, float):
        try:
            return key, parse(raw)
        except ValueError:
            pass
    return key, raw


def build_model(name: str, seed: int, params: dict[str, Value]) -> AssetModel:
    try:
        factory = MODELS[name]
    except KeyError:
        raise ValueError(f"unknown asset model {name!r}; choose from {sorted(MODELS)}") from None
    return factory(seed=seed, **params)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="twin-asset",
                                     description="Run a simulated asset process.")
    parser.add_argument("--listen", required=True, help="tcp://host:port (port 0 for ephemeral)")
    parser.add_argument("--model", choices=sorted(MODELS), default="tank")
    parser.add_argument("--step-ms", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--param", action="append", default=[], metavar="K=V")
    args = parser.parse_args(argv)

    params = dict(parse_param(p) for p in args.param)
    try:
        model = build_model(args.model, args.seed, params)
        server = AssetServer(model, listen=args.listen, step_ms=args.step_ms)
    except (TypeError, ValueError, TwinError) as exc:  # TwinError: the address is taken
        parser.error(str(exc))
    print(f"listening {server.endpoint}", flush=True)
    try:
        server._server.serve()  # until the process is stopped
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
