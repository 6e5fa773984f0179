"""The traced run: pass-through timers around each layer's public functions.

The timers are installed from the benchmark's side by replacing a module
function or class attribute with a wrapper that records a span and then
returns the original's result, or re-raises its exception, unchanged.
Nothing under src/ is edited; uninstall() puts every original back.

A span records its name, start, end, the span that was open on the same
thread when it started (its parent), the thread's name and a trace id: the
tick the driver is running, 0 during set-up, None outside both. Spans on
other threads, such as a gateway's reader, have no parent. Spans are kept
in memory and written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import json
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from stats import median

# (name, unit, better) of every per-layer metric, in report order
LAYER_METRICS = (
    ("wire.msgs_per_tick", "count/tick", "lower"),
    ("wire.bytes_per_tick", "B/tick", "lower"),
    ("wire.encode_us", "us", "lower"),
    ("wire.decode_us", "us", "lower"),
    ("gateway.round_trips_per_tick", "count/tick", "lower"),
    ("gateway.ping_us", "us", "lower"),
    ("gateway.read_us", "us", "lower"),
    ("gateway.write_us", "us", "lower"),
    ("gateway.samples_per_tick", "count/tick", "lower"),
    ("gateway.slow_rtt_ratio", "ratio", "lower"),
    ("gateway.connect_ms", "ms", "lower"),
    ("asset.step_us", "us", "lower"),
    ("engine.tick_self_ms", "ms", "lower"),
    ("engine.syncs_per_tick", "count/tick", "lower"),
    ("engine.sync_us", "us", "lower"),
    ("engine.suspended_ratio", "ratio", "lower"),
    ("engine.add_mapping_ms", "ms", "lower"),
    ("models.apply_us", "us", "lower"),
    ("models.applies_per_tick", "count/tick", "lower"),
    ("models.reads_per_tick", "count/tick", "lower"),
    ("data.query_ms", "ms", "lower"),
    ("data.scanned_per_query", "count", "lower"),
    ("data.query_hit_ratio", "ratio", "higher"),
    ("data.ingest_us", "us", "lower"),
    ("data.ingests_per_tick", "count/tick", "lower"),
    ("data.journal_bytes_per_tick", "B/tick", "lower"),
    ("services.mediated_per_tick", "count/tick", "lower"),
    ("services.mediate_us", "us", "lower"),
    ("services.denials", "count", "lower"),
    ("runtime.model_edit_us", "us", "lower"),
    ("config.load_ms", "ms", "lower"),
    ("conformance.audit_ms", "ms", "lower"),
    ("trace.overhead_ms", "ms", "lower"),
)

ROUND_TRIPS = ("gateway.ping", "gateway.read", "gateway.write", "gateway.invoke",
               "gateway.observe", "gateway.subscribe")
SLOW_RTT_S = 0.020


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "trace", "thread", "size", "error")

    def __init__(self, sid: int, name: str, start: float, end: float,
                 parent: int | None = None, trace: int | None = None,
                 thread: str = "MainThread", size: Any = None, error: str | None = None):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.trace = trace
        self.thread = thread
        self.size = size
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start


def _targets() -> list[tuple[Any, str, str, Callable | None]]:
    """(owner, attribute, span name, size-of(args, result)) for every timed call."""
    from twinrt import asset, conformance, config, data, engine, gateway, models, runtime, wire

    def arg(i):
        return lambda args, result: len(args[i])

    return [
        (wire, "encode_message", "wire.encode", None),
        (wire, "decode_message", "wire.decode", arg(0)),
        (wire.LineChannel, "send_raw", "wire.send", arg(1)),
        (gateway.GatewayHandle, "ping", "gateway.ping", None),
        (gateway.GatewayHandle, "read_property", "gateway.read", None),
        (gateway.GatewayHandle, "write_property", "gateway.write", None),
        (gateway.GatewayHandle, "invoke_function", "gateway.invoke", None),
        (gateway.GatewayHandle, "observe_property", "gateway.observe", None),
        (gateway.GatewayHandle, "subscribe_event", "gateway.subscribe", None),
        # the runtime calls gateway.connect through the name it imported
        (runtime, "connect", "gateway.connect", None),
        (gateway.Stream, "drain", "gateway.drain", lambda args, result: len(result)),
        (asset.AssetServer, "step", "asset.step", None),
        (asset.AssetControl, "step", "asset.step", None),
        (engine.Engine, "tick", "engine.tick", None),
        (engine.Engine, "sync_mapping", "engine.sync",
         lambda args, result: result.reason.value),
        (engine.Engine, "add_mapping", "engine.add_mapping", None),
        (engine.Engine, "mediate_service_call", "services.mediate", None),
        (models.ModelRegistry, "apply_operator", "models.apply", None),
        (models.ModelRegistry, "property_value", "models.read", None),
        (data.DataManager, "ingest", "data.ingest", None),
        (data.DataManager, "query", "data.query",
         lambda args, result: (len(result), args[0].count())),
        (runtime.TwinRuntime, "model_edit", "runtime.model_edit", None),
        (config, "load", "config.load", None),
        (conformance, "audit", "conformance.audit", None),
    ]


class Tracer:
    """Records spans from pass-through wrappers; not reentrant across installs."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple[Any, str, Any]] = []

    def install(self, targets=None) -> None:
        for owner, attribute, name, size in (targets if targets is not None else _targets()):
            original = owner.__dict__[attribute]
            self._saved.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(original, name, size))

    def uninstall(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn: Callable, name: str, size: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            span = Span(next(tracer._ids), name, 0.0, 0.0,
                        parent=stack[-1].sid if stack else None, trace=tracer.trace_id,
                        thread=threading.current_thread().name)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if size is not None:
                span.size = size(args, result)
            return result

        return timed

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line, times in µs from the first span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s.sid):
                fh.write(json.dumps({
                    "id": s.sid, "name": s.name, "parent": s.parent, "trace": s.trace,
                    "thread": s.thread, "start_us": round((s.start - origin) * 1e6, 1),
                    "end_us": round((s.end - origin) * 1e6, 1), "size": s.size,
                    "error": s.error}) + "\n")


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        reach = s.start
        for child in sorted(children.get(s.sid, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.sid] = s.duration - covered
    return out


def _twin_side(span: Span, by_id: dict[int, Span]) -> bool:
    """True for work done by the twin, not by the simulated asset or its control.

    In-process assets serve on LineServer handler threads; the driver's asset
    steps run on the main thread. The twin's own I/O happens on the main
    thread and on the gateways' reader threads.
    """
    if span.thread != "MainThread" and not span.thread.endswith("(_read_loop)"):
        return False
    parent = span.parent
    while parent is not None:
        ancestor = by_id[parent]
        if ancestor.name == "asset.step":
            return False
        parent = ancestor.parent
    return True


def layer_metrics(spans: list[Span], ticks: int, journal_bytes: int,
                  overhead_ms: float) -> dict[str, float]:
    """Per-layer metrics over the spans of one traced set-up and timed loop."""
    by_id = {s.sid: s for s in spans}
    loop: dict[str, list[Span]] = {}
    setup: dict[str, list[Span]] = {}
    for s in spans:
        if s.trace is None:
            continue
        if s.name.startswith("wire.") and not _twin_side(s, by_id):
            continue
        (setup if s.trace == 0 else loop).setdefault(s.name, []).append(s)
    per_tick = max(ticks, 1)

    def spans_of(*names, phase=loop):
        return [s for n in names for s in phase.get(n, ())]

    def us(name):
        return median([s.duration * 1e6 for s in spans_of(name)])

    def ms_total(name):
        return sum(s.duration for s in spans_of(name, phase=setup)) * 1e3

    def rate(*names):
        return len(spans_of(*names)) / per_tick

    trips = spans_of(*ROUND_TRIPS)
    syncs = spans_of("engine.sync")
    queries = [s for s in spans_of("data.query") if s.size is not None]
    scanned = sum(s.size[1] for s in queries)
    selfs = self_times(spans)
    wire_msgs = spans_of("wire.send", "wire.decode")
    return {
        "wire.msgs_per_tick": len(wire_msgs) / per_tick,
        "wire.bytes_per_tick": sum(s.size or 0 for s in wire_msgs) / per_tick,
        "wire.encode_us": us("wire.encode"),
        "wire.decode_us": us("wire.decode"),
        "gateway.round_trips_per_tick": len(trips) / per_tick,
        "gateway.ping_us": us("gateway.ping"),
        "gateway.read_us": us("gateway.read"),
        "gateway.write_us": us("gateway.write"),
        "gateway.samples_per_tick": sum(s.size or 0 for s in spans_of("gateway.drain")) / per_tick,
        "gateway.slow_rtt_ratio":
            sum(s.duration > SLOW_RTT_S for s in trips) / len(trips) if trips else 0.0,
        "gateway.connect_ms": ms_total("gateway.connect"),
        "asset.step_us": us("asset.step"),
        "engine.tick_self_ms": median([selfs[s.sid] * 1e3 for s in spans_of("engine.tick")]),
        "engine.syncs_per_tick": len(syncs) / per_tick,
        "engine.sync_us": us("engine.sync"),
        "engine.suspended_ratio":
            sum(s.size == "suspended" for s in syncs) / len(syncs) if syncs else 0.0,
        "engine.add_mapping_ms": ms_total("engine.add_mapping"),
        "models.apply_us": us("models.apply"),
        "models.applies_per_tick": rate("models.apply"),
        "models.reads_per_tick": rate("models.read"),
        "data.query_ms": median([s.duration * 1e3 for s in queries]),
        "data.scanned_per_query": scanned / len(queries) if queries else 0.0,
        "data.query_hit_ratio": sum(s.size[0] for s in queries) / scanned if scanned else 0.0,
        "data.ingest_us": us("data.ingest"),
        "data.ingests_per_tick": rate("data.ingest"),
        "data.journal_bytes_per_tick": journal_bytes / per_tick,
        "services.mediated_per_tick": rate("services.mediate"),
        "services.mediate_us": us("services.mediate"),
        "services.denials": float(sum(s.error == "PermissionDenied"
                                      for s in spans_of("services.mediate"))),
        "runtime.model_edit_us": us("runtime.model_edit"),
        "config.load_ms": ms_total("config.load"),
        "conformance.audit_ms": ms_total("conformance.audit"),
        "trace.overhead_ms": overhead_ms,
    }
