"""The twin engine: mappings, the synchronizer, and all mediation.

One orchestration loop owns every mutation. Pushes are read from a gateway
only inside its calls: each request routes the pushes that arrive before its
reply, and the rest wait in the asset's or the kernel's buffers. At tick
start the engine pings every gateway, which reads everything pushed before
the pong, and only then drains the streams, so two runs over the same
scripted asset trace produce identical decision lists, model states, and
data journals. Every caller steps its assets once per tick, so a tick's
pushes stay far below the asset's backlog cap. The engine keeps no stream
table: the handle's is the one record of what the twin listens to. An
element's stream is opened only when its handle has none, and each tick
drains the handles' streams in fixed order: gateways by id, then property
streams by name, then event streams by name.

For an observed property the newest update drained after the barrier is
the asset's current value, so a pull takes it from the ledger. It reads the
property only when no update has been drained yet, or when another has
arrived since the drain (the echo of a push in the same tick). Every mapping
that pulls observes its property, as does a change trigger, so a pull in the
steady state costs no round trip. The price is a push for every change of an
observed property, which the asset writes at once or with its next reply on
that connection: an as-to-dt mapping scheduled every n ticks takes up to n
updates per pull, where a read would be one request. A property whose
``observe`` the asset refuses is read on every pull.

Recency for bidirectional mappings is compared in tick space: the engine
ledgers the tick at which each asset-side change was drained and the tick at
which each model property was last edited (sync writes do not count as
edits). Newer side wins; an exact tie resolves for the DT side. Model edits
made between ticks are stamped with the upcoming tick, so an edit and an
asset change landing in the same inter-tick window compare as a tie.

Every value a sync moves into a model is accompanied by exactly one data
record with the asset as origin, ingested in the same tick; pushes to the
asset are recorded with operator or service origin per the provenance of the
model edit that caused them.
"""

from __future__ import annotations

import bisect
import heapq
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable, Iterator

from . import data as data_mod
from .data import DataManager, ModelElementRef
from .errors import (
    Disconnected,
    DuplicateMapping,
    DuplicateService,
    DanglingGrantTarget,
    IntegrityViolation,
    MissingLastUpdateSupport,
    PermissionDenied,
    ReadOnlyTarget,
    SchemaViolation,
    StorageFailure,
    TickSequenceError,
    TransformFailure,
    TwinError,
    UnresolvedGatewaySide,
    UnresolvedModelSide,
    UnresolvedReference,
)
from .gateway import ERROR_CODES, ElementKind, GatewayHandle, PropertyAccess, Stream
from .models import ModelMode, ModelRegistry
from .services import (
    BUILTIN_SERVICE_NAMES,
    ApplyOperator,
    IngestProcessed,
    InvokeFunction,
    QueryData,
    ReadGatewayProperty,
    ReadModelProperty,
    ServiceClient,
    ServiceDescriptor,
    ServiceRequest,
    required_capability,
)
from .values import Value, coerce_real


class Direction(str, Enum):
    AS_TO_DT = "as-to-dt"
    DT_TO_AS = "dt-to-as"
    BIDIRECTIONAL = "bidirectional"


class SyncAction(str, Enum):
    PUSH_DT_TO_AS = "push-dt-to-as"
    PULL_AS_TO_DT = "pull-as-to-dt"
    NO_OP = "no-op"


class SyncReason(str, Enum):
    SCHEDULED = "scheduled"
    TRIGGERED = "triggered"
    CONFLICT_AS_WINS = "conflict-resolved-as-wins"
    CONFLICT_DT_WINS = "conflict-resolved-dt-wins"
    SUSPENDED = "suspended"


class TriggerKind(str, Enum):
    GATEWAY_CHANGE = "gateway-change"
    GATEWAY_EVENT = "gateway-event"
    MODEL_CHANGE = "model-change"


@dataclass(frozen=True, slots=True)
class Trigger:
    kind: TriggerKind
    gateway_id: str | None = None
    element: str | None = None
    model_id: str | None = None
    element_id: str | None = None
    property_name: str | None = None

    def key(self) -> tuple:
        if self.kind is TriggerKind.MODEL_CHANGE:
            return (self.kind.value, self.model_id, self.element_id, self.property_name)
        return (self.kind.value, self.gateway_id, self.element)


@dataclass(frozen=True, slots=True)
class Schedule:
    """Either every n ticks (n >= 1) or on a trigger occurrence."""

    every: int | None = None
    trigger: Trigger | None = None

    def __post_init__(self):
        if (self.every is None) == (self.trigger is None):
            raise ValueError("schedule is either every-n-ticks or on-trigger")
        if self.every is not None and self.every < 1:
            raise ValueError("schedule period must be >= 1")


@dataclass(frozen=True, slots=True)
class Transform:
    """Affine value transform applied in the AS-to-DT direction.

    model_value = scale * gateway_value + offset; the inverse is used when
    pushing DT to AS, which is why scale may not be zero. The identity
    transform passes any value type through; a non-identity transform
    requires numeric values, and a result that is not finite is a
    TransformFailure.
    """

    scale: float = 1.0
    offset: float = 0.0
    unit: str | None = None

    def __post_init__(self):
        if self.scale == 0:
            raise ValueError("transform scale must be non-zero")

    @property
    def is_identity(self) -> bool:
        return self.scale == 1.0 and self.offset == 0.0

    def keeps_integers(self, inverse: bool = False) -> bool:
        """Whether ``apply``, or ``invert`` if ``inverse``, takes every integer to one."""
        scale, offset = (1 / self.scale, -self.offset / self.scale) if inverse else (
            self.scale, self.offset)
        return float(scale).is_integer() and float(offset).is_integer()

    def apply(self, value: Value) -> Value:
        if self.is_identity:
            return value
        return _affine(lambda x: self.scale * x + self.offset, value)

    def invert(self, value: Value) -> Value:
        if self.is_identity:
            return value
        return _affine(lambda x: (x - self.offset) / self.scale, value)


def _affine(map_: Callable[[float], float], value: Value) -> float:
    """``map_`` of ``value``: TransformFailure unless it is a number and the
    result is finite."""
    try:
        result = map_(coerce_real(value))
    except SchemaViolation as exc:
        raise TransformFailure(str(exc)) from exc
    if not math.isfinite(result):
        raise TransformFailure(f"result {result} is not finite")
    return result


@dataclass(frozen=True, slots=True)
class Mapping:
    mapping_id: str
    model_id: str
    element_id: str
    property_name: str
    gateway_id: str
    gateway_property: str
    direction: Direction
    schedule: Schedule
    transform: Transform = Transform()
    enabled: bool = True
    _model_ref: ModelElementRef = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # every sync links its record to this ref: build it once
        object.__setattr__(self, "_model_ref",
                           ModelElementRef(self.model_id, self.element_id, self.property_name))

    def model_ref(self) -> ModelElementRef:
        return self._model_ref

    def streams(self) -> list[tuple[str, str, str]]:
        """The gateway streams this mapping must hear about, as (gateway,
        element, handle method): its property unless it only pushes, so a
        pull takes the drained update instead of reading, and a gateway
        trigger's element."""
        streams = []
        if self.direction is not Direction.DT_TO_AS:
            streams.append((self.gateway_id, self.gateway_property, "observe_property"))
        trigger = self.schedule.trigger
        if trigger is not None and trigger.kind is TriggerKind.GATEWAY_CHANGE:
            streams.append((trigger.gateway_id, trigger.element, "observe_property"))
        elif trigger is not None and trigger.kind is TriggerKind.GATEWAY_EVENT:
            streams.append((trigger.gateway_id, trigger.element, "subscribe_event"))
        return streams


@dataclass(frozen=True, slots=True)
class SyncDecision:
    tick: int
    mapping_id: str
    action: SyncAction
    reason: SyncReason
    detail: str = ""

    def to_dict(self) -> dict:
        out = {"kind": "sync", "tick": self.tick, "mapping": self.mapping_id,
               "action": self.action.value, "reason": self.reason.value}
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass(slots=True)
class _Observation:
    tick: int
    value: Value


@dataclass(slots=True)
class _Edit:
    tick: int
    cause: str  # "operator" | "service:<id>"


@dataclass(slots=True)
class _ServiceState:
    descriptor: ServiceDescriptor
    client: ServiceClient
    enabled: bool = True


# what a failed gateway request raises besides Disconnected; it suspends the sync
_GATEWAY_FAULTS = tuple(ERROR_CODES.values())


def _drain_order(stream: Stream) -> tuple[bool, str]:
    """Property streams by name, then event streams by name."""
    return stream.kind is not ElementKind.PROPERTY, stream.element


def wiring_findings(item: Mapping | ServiceDescriptor, models: ModelRegistry,
                    gateways: dict[str, Any]) -> Iterator[TwinError]:
    """Each fault in how ``item``, a mapping or a service, is wired, as the
    error that start-up raises first and the audit reports. ``models`` is
    the registry, or a view of the configured models that answers its
    ``resolve``, ``declared_type``, ``model`` and ``models`` alike;
    ``gateways`` holds by id anything with a ``descriptor``. A service's
    grant must name what exists. A mapping's sides must resolve and their
    declared types meet: be equal, or both numbers, as ``values.fit_value``
    fits them. A transform that is not the identity needs numbers on both
    sides, and must take integers to integers where it writes an integer.
    """
    if not isinstance(item, Mapping):
        yield from _service_findings(item, models, gateways)
        return
    name = f"mapping {item.mapping_id!r}"
    prop = f"{item.model_id}/{item.element_id}.{item.property_name}"
    model_type = models.declared_type(item.model_ref())  # None if no language declares it
    resolved = model_type is not None or models.resolve(item.model_ref())
    if not resolved:
        yield UnresolvedModelSide(f"{name} references unresolved model property {prop}")
    target = f"{item.gateway_id}/{item.gateway_property}"
    decl = _declared(gateways, item.gateway_id, item.gateway_property, ElementKind.PROPERTY)
    if decl is None:
        yield UnresolvedGatewaySide(f"{name} references unresolved gateway property {target}")
    elif (item.direction is not Direction.AS_TO_DT
          and decl.access is not PropertyAccess.READ_WRITE):
        yield ReadOnlyTarget(f"{name} writes read-only property {target}")
    if (resolved and item.direction is Direction.BIDIRECTIONAL
            and not models.model(item.model_id).supports_last_update):
        yield MissingLastUpdateSupport(f"{name} is bidirectional but model "
                                       f"{item.model_id!r} keeps no last_update")
    if (model_type is not None and decl is not None
            and (model_type != decl.value_type or not item.transform.is_identity)):
        if not {model_type, decl.value_type} <= {"integer", "real"}:
            yield SchemaViolation(f"{name} joins {model_type} model property {prop} to "
                                  f"{decl.value_type} gateway property {target}"
                                  + (" through a transform" if model_type == decl.value_type
                                     else ""))
        for side_type, where, writes, inverse in (
                (model_type, prop, item.direction is not Direction.DT_TO_AS, False),
                (decl.value_type, target, item.direction is not Direction.AS_TO_DT, True)):
            if writes and side_type == "integer" and not item.transform.keeps_integers(inverse):
                yield SchemaViolation(f"{name} can write a fraction to integer property "
                                      f"{where} through its transform")
    trigger = item.schedule.trigger
    if trigger is not None and trigger.kind is TriggerKind.MODEL_CHANGE:
        if not models.resolve(ModelElementRef(trigger.model_id, trigger.element_id,
                                              trigger.property_name)):
            yield UnresolvedModelSide(f"{name} trigger references unresolved model property")
    elif trigger is not None and _declared(
            gateways, trigger.gateway_id, trigger.element,
            ElementKind.PROPERTY if trigger.kind is TriggerKind.GATEWAY_CHANGE
            else ElementKind.EVENT) is None:
        yield UnresolvedGatewaySide(f"{name} trigger references unresolved gateway element "
                                    f"{trigger.gateway_id}/{trigger.element}")


def _service_findings(service: ServiceDescriptor, models: ModelRegistry,
                      gateways: dict[str, Any]) -> Iterator[TwinError]:
    name = f"service {service.service_id!r}"
    for kind, target in sorted(service.effective_grant.entries):
        # read-data and ingest-data always target "*"
        what, known = (("model", models.models()) if kind in ("read-model", "write-model")
                       else ("gateway", gateways))
        if target != "*" and target not in known:
            yield DanglingGrantTarget(f"{name} grant names unknown {what} {target!r}")
    if service.builtin is None:
        return  # it runs nothing inside the twin
    if service.builtin not in BUILTIN_SERVICE_NAMES:
        yield UnresolvedReference(f"{name} names unknown builtin {service.builtin!r}")
        return
    params = service.params
    ref = (params.get("model"), params.get("element"), params.get("property"))
    if not all(isinstance(part, str) for part in ref):
        yield UnresolvedModelSide(f"{name} params lack a model property ref")
    elif not models.resolve(watched := ModelElementRef(*ref)):
        yield UnresolvedModelSide(f"{name} watches unresolved model property "
                                  f"{ref[0]}/{ref[1]}.{ref[2]}")
    # the built-ins read a number; None, no language declares it, is C3's finding
    elif (value_type := models.declared_type(watched)) not in (None, "integer", "real"):
        yield SchemaViolation(f"{name} watches {value_type} model property "
                              f"{ref[0]}/{ref[1]}.{ref[2]}, not a number")
    if service.builtin != "threshold_guard":
        return
    function = f"{params.get('gateway')}/{params.get('function')}"
    decl = _declared(gateways, params.get("gateway"), params.get("function"),
                     ElementKind.FUNCTION)
    if decl is None:
        yield UnresolvedGatewaySide(f"{name} commands unresolved function {function}")
    elif isinstance(params.get("args", []), list):  # build_builtin refuses other args
        try:
            decl.fitted_args(params.get("args", []))
        except SchemaViolation as exc:
            yield SchemaViolation(f"{name} calls {function}: {exc}")


def _declared(gateways: dict[str, Any], gateway_id, element, kind: ElementKind):
    """The element of ``kind`` that gateway ``gateway_id`` declares as ``element``, or None."""
    gateway = gateways.get(gateway_id)
    decl = gateway.descriptor.element(element) if gateway is not None else None
    return decl if decl is not None and decl.kind is kind else None


class Engine:
    """Owns mappings and runs the synchronizer over a deterministic tick loop.

    The tick counter is externally driven; the engine never reads a clock.
    Between ticks the registry stamps edits with tick+1 (the tick at which
    they become visible); during a tick it stamps with the running tick.
    """

    def __init__(self, registry: ModelRegistry, data: DataManager,
                 sink: Callable[[dict], None] | None = None):
        self.registry = registry
        self.data = data
        self._sink = sink
        self._tick = 0
        self._in_tick = False
        self._gateways: dict[str, GatewayHandle] = {}
        self._mappings: dict[str, Mapping] = {}
        self._by_trigger: dict[tuple, list[str]] = {}  # trigger key -> sorted mapping ids
        # period -> sorted ids of the mappings scheduled every that many ticks
        self._scheduled: dict[int, list[str]] = {}
        self._asset_ledger: dict[tuple[str, str], _Observation] = {}
        self._edit_ledger: dict[tuple[str, str, str], _Edit] = {}
        # mapping id -> the recency its last sync saw; written only by syncs
        self._sync_memory: dict[str, tuple[int, int]] = {}
        self._pending_triggers: list[tuple] = []  # occurrence keys, FIFO
        self._needs_reconcile: set[str] = set()
        self._services: dict[str, _ServiceState] = {}
        # the (service, on_tick) pairs each tick calls, in service-id order
        self._on_tick: list[tuple[_ServiceState, Callable]] = []
        self.decisions: list[SyncDecision] = []
        self.sync_model_updates = 0  # model writes performed by the synchronizer
        registry.tick_supplier = self.effective_tick
        registry.change_listeners.append(self._on_model_change)
        registry.mode_listeners.append(self._on_mode_change)

    # --- tick bookkeeping ---

    @property
    def tick_count(self) -> int:
        return self._tick

    def effective_tick(self) -> int:
        """Tick at which a mutation happening right now becomes visible."""
        return self._tick if self._in_tick else self._tick + 1

    def _emit(self, line: dict) -> None:
        if self._sink is not None:
            self._sink(line)

    def _notice(self, **fields) -> None:
        self._emit({"kind": "service", "tick": self.effective_tick(), **fields})

    # --- wiring ---

    def add_gateway(self, handle: GatewayHandle) -> None:
        if handle.gateway_id in self._gateways:
            raise ValueError(f"gateway {handle.gateway_id!r} already attached")
        self._gateways[handle.gateway_id] = handle

    def gateway(self, gateway_id: str) -> GatewayHandle:
        handle = self._gateways.get(gateway_id)
        if handle is None:
            raise UnresolvedGatewaySide(f"gateway {gateway_id!r} is not attached")
        return handle

    def gateways(self) -> list[str]:
        return sorted(self._gateways)

    def mappings(self) -> list[Mapping]:
        return [self._mappings[k] for k in sorted(self._mappings)]

    def add_mapping(self, mapping: Mapping) -> None:
        if mapping.mapping_id in self._mappings:
            raise DuplicateMapping(f"mapping {mapping.mapping_id!r} already exists")
        for fault in wiring_findings(mapping, self.registry, self._gateways):
            raise fault
        self._mappings[mapping.mapping_id] = mapping
        trigger = mapping.schedule.trigger
        if trigger is None:
            bisect.insort(self._scheduled.setdefault(mapping.schedule.every, []),
                          mapping.mapping_id)
        else:
            bisect.insort(self._by_trigger.setdefault(trigger.key(), []), mapping.mapping_id)
        self._subscribe_mapping(mapping)

    def set_mapping_enabled(self, mapping_id: str, enabled: bool) -> None:
        mapping = self._mappings.get(mapping_id)
        if mapping is None:
            raise KeyError(f"no mapping {mapping_id!r}")
        self._mappings[mapping_id] = replace(mapping, enabled=enabled)

    def _subscribe_mapping(self, mapping: Mapping) -> None:
        """Observe/subscribe the gateway elements one mapping must hear about."""
        for gateway_id, element, method in mapping.streams():
            self._open_stream(gateway_id, element, method)

    def _open_stream(self, gateway_id: str, name: str, method: str) -> None:
        """Open one element's stream by calling ``method`` on its gateway handle,
        unless the handle has one already; a gateway fault leaves it unopened."""
        handle = self._gateways.get(gateway_id)
        if handle is None or not handle.is_alive or name in handle.streams:
            return
        try:
            getattr(handle, method)(name)
        except TwinError:
            pass  # gateway will show up as suspended at sync time

    # --- model registry callbacks ---

    def _on_model_change(self, model_id: str, changed: tuple, cause: str, tick: int) -> None:
        if cause == "sync":
            self.sync_model_updates += 1
            return
        for element_id, prop in changed:
            self._edit_ledger[(model_id, element_id, prop)] = _Edit(tick=tick, cause=cause)
            self._pending_triggers.append(
                (TriggerKind.MODEL_CHANGE.value, model_id, element_id, prop))

    def _on_mode_change(self, model_id: str, mode: ModelMode) -> None:
        if mode is ModelMode.ONLINE:
            for mapping in self._mappings.values():
                if mapping.model_id == model_id:
                    self._needs_reconcile.add(mapping.mapping_id)

    # --- services ---

    def register_service(self, descriptor: ServiceDescriptor, impl: Any = None) -> None:
        """Register a service; ``impl``'s ``on_tick``, if it has one, is bound
        once, to run after every tick's syncs. It must be wired right."""
        if descriptor.service_id in self._services:
            raise DuplicateService(f"service {descriptor.service_id!r} already registered")
        for fault in wiring_findings(descriptor, self.registry, self._gateways):
            raise fault
        svc = self._services[descriptor.service_id] = _ServiceState(
            descriptor=descriptor, client=ServiceClient(self, descriptor.service_id))
        on_tick = getattr(impl, "on_tick", None)
        if on_tick is not None:
            bisect.insort(self._on_tick, (svc, on_tick),
                          key=lambda bound: bound[0].descriptor.service_id)

    def set_service_enabled(self, service_id: str, enabled: bool) -> None:
        svc = self._services.get(service_id)
        if svc is None:
            raise KeyError(f"no service {service_id!r}")
        svc.enabled = enabled

    def services(self) -> list[str]:
        return sorted(self._services)

    def service_enabled(self, service_id: str) -> bool:
        return self._services[service_id].enabled

    # --- mediation ---

    def _service(self, service_id: str) -> _ServiceState:
        svc = self._services.get(service_id)
        if svc is None:
            raise PermissionDenied(f"service {service_id!r} is not registered")
        return svc

    def report_service_error(self, service_id: str, message: str) -> None:
        """Record, as an ``error`` notice, a failure the service handled itself."""
        self._service(service_id)
        self._notice(service=service_id, event="error", detail=message)

    def mediate_service_call(self, service_id: str, request: ServiceRequest):
        svc = self._service(service_id)
        kind, target = required_capability(request)
        if not svc.descriptor.effective_grant.allows(kind, target):
            capability = kind if target == "*" else f"{kind}:{target}"
            raise PermissionDenied(
                f"service {service_id!r} lacks capability {capability}", capability)
        return self._execute(request, principal=f"service:{service_id}")

    def mediate_operator_call(self, request: ServiceRequest):
        """Operator principal: the CLI and scenario driver; full access."""
        return self._execute(request, principal="operator")

    def _execute(self, request: ServiceRequest, principal: str):
        if isinstance(request, ReadModelProperty):
            return self.registry.property_value(request.model_id, request.element_id,
                                                request.property_name)
        if isinstance(request, ApplyOperator):
            return self.registry.apply_operator(request.manager_id, request.operator_id,
                                                request.model_id, request.args,
                                                cause=principal)
        if isinstance(request, QueryData):
            return self.data.query(request.selector)
        if isinstance(request, IngestProcessed):
            props = [data_mod.origin_of(principal), data_mod.timeliness(request.timeliness),
                     data_mod.processing(data_mod.PROCESSED),
                     data_mod.last_update(self.effective_tick())]
            props.extend(request.extra)
            return self.data.ingest(request.value, props, model_link=request.link)
        if isinstance(request, ReadGatewayProperty):
            return self.gateway(request.gateway_id).read_property(request.property_name)
        if isinstance(request, InvokeFunction):
            return self.gateway(request.gateway_id).invoke_function(
                request.function, list(request.args))
        raise TypeError(f"not a service request: {request!r}")

    # --- the tick loop ---

    def tick(self, now_tick: int) -> list[SyncDecision]:
        if now_tick != self._tick + 1:
            raise TickSequenceError(f"tick {now_tick} does not follow {self._tick}")
        self._tick = now_tick
        self._in_tick = True
        try:
            self._drain_gateways()
            decisions = []
            for mapping_id, reason in self._collect_fired(now_tick).items():
                mapping = self._mappings[mapping_id]
                if not mapping.enabled:
                    continue
                decision = self.sync_mapping(mapping, reason)
                decisions.append(decision)
                self.decisions.append(decision)
                self._emit(decision.to_dict())
            for svc, on_tick in self._on_tick:
                self._call_hook(svc, on_tick)
            return decisions
        finally:
            self._in_tick = False

    def _drain_gateways(self) -> None:
        """Pull everything the assets pushed since last tick, in fixed order."""
        for gateway_id in sorted(self._gateways):
            handle = self._gateways[gateway_id]
            if handle.is_alive:
                try:
                    handle.ping()  # barrier: all earlier pushes are now routed
                except TwinError:
                    pass
            for stream in sorted(handle.streams.values(), key=_drain_order):
                name = stream.element
                if stream.kind is ElementKind.PROPERTY:
                    for sample in stream.drain():
                        self._asset_ledger[(gateway_id, name)] = _Observation(
                            self._tick, sample.value)
                        self._pending_triggers.append(
                            (TriggerKind.GATEWAY_CHANGE.value, gateway_id, name))
                else:
                    for _ in stream.drain():
                        self._pending_triggers.append(
                            (TriggerKind.GATEWAY_EVENT.value, gateway_id, name))

    def _collect_fired(self, now_tick: int) -> dict[str, SyncReason]:
        """The mappings due, in sync order, each with its first reason: triggers
        in occurrence order, then reconciles sorted, then schedules by id."""
        fired: dict[str, SyncReason] = {}
        pending, self._pending_triggers = self._pending_triggers, []
        for occurrence in dict.fromkeys(pending):
            for mapping_id in self._by_trigger.get(occurrence, ()):
                fired.setdefault(mapping_id, SyncReason.TRIGGERED)
        reconcile, self._needs_reconcile = self._needs_reconcile, set()
        for mapping_id in sorted(reconcile):
            fired.setdefault(mapping_id, SyncReason.TRIGGERED)
        due = [ids for every, ids in self._scheduled.items() if now_tick % every == 0]
        for mapping_id in heapq.merge(*due):
            fired.setdefault(mapping_id, SyncReason.SCHEDULED)
        return fired

    # --- synchronization ---

    def sync_mapping(self, mapping: Mapping, reason: SyncReason) -> SyncDecision:
        model = self.registry.model(mapping.model_id)
        if model.mode is ModelMode.OFFLINE:
            return self._suspended(mapping, "model offline")
        if not self.registry.resolve(mapping.model_ref()):
            return self._suspended(mapping, "model side unresolved")
        handle = self._gateways.get(mapping.gateway_id)
        if handle is None or not handle.is_alive:
            return self._suspended(mapping, "gateway unavailable")
        try:
            if mapping.direction is Direction.AS_TO_DT:
                return self._pull(mapping, reason)
            if mapping.direction is Direction.DT_TO_AS:
                return self._push(mapping, reason)
            return self._sync_bidirectional(mapping, reason)
        except Disconnected as exc:
            return self._suspended(mapping, f"gateway disconnected: {exc}")
        except _GATEWAY_FAULTS as exc:
            return self._suspended(mapping, f"gateway error: {exc}")
        except TransformFailure as exc:
            return self._suspended(mapping, f"transform failure: {exc}")
        except IntegrityViolation as exc:
            # the asset persistently violates a model rule: disable, surface
            self.set_mapping_enabled(mapping.mapping_id, False)
            return self._suspended(mapping, f"integrity violation, mapping disabled: {exc}")

    def _sync_bidirectional(self, mapping: Mapping, reason: SyncReason) -> SyncDecision:
        model_tick, asset_tick = self._recency(mapping)
        last_model, last_asset = self._sync_memory.get(mapping.mapping_id, (0, 0))
        model_new = model_tick > last_model
        asset_new = asset_tick > last_asset
        if not model_new and not asset_new:
            return self._decision(mapping, SyncAction.NO_OP, reason)
        if model_new and asset_new:
            # conflict: compare recency in tick space; exact tie -> DT wins
            if model_tick >= asset_tick:
                return self._push(mapping, SyncReason.CONFLICT_DT_WINS)
            return self._pull(mapping, SyncReason.CONFLICT_AS_WINS)
        if model_new:
            return self._push(mapping, reason)
        return self._pull(mapping, reason)

    def _recency(self, mapping: Mapping) -> tuple[int, int]:
        edit = self._edit_ledger.get((mapping.model_id, mapping.element_id,
                                      mapping.property_name))
        obs = self._asset_ledger.get((mapping.gateway_id, mapping.gateway_property))
        return (edit.tick if edit else 0, obs.tick if obs else 0)

    def _asset_value(self, mapping: Mapping) -> Value:
        """The asset's current value of the mapped property.

        For an observed property with nothing queued since the drain, that
        is the newest update the drain took. Otherwise the property is read.
        The first read of an observed property seeds the ledger at tick 0,
        the recency of a property that has not changed.
        """
        key = (mapping.gateway_id, mapping.gateway_property)
        handle = self.gateway(mapping.gateway_id)
        obs = self._asset_ledger.get(key)
        stream = handle.streams.get(mapping.gateway_property)
        if obs is not None and stream.empty:
            return obs.value
        sample = handle.read_property(mapping.gateway_property)
        if obs is None and stream is not None:
            self._asset_ledger[key] = _Observation(0, sample.value)
        return sample.value

    def _pull(self, mapping: Mapping, reason: SyncReason) -> SyncDecision:
        args = {"element": mapping.element_id, "property": mapping.property_name,
                "value": mapping.transform.apply(self._asset_value(mapping))}
        self.registry.apply_operator(self.registry.owner_of(mapping.model_id), "set_property",
                                     mapping.model_id, args, cause="sync")
        value = self.registry.property_value(mapping.model_id, mapping.element_id,
                                             mapping.property_name)  # as fitted and committed
        return self._synced(mapping, value, data_mod.origin_actual_system(mapping.gateway_id),
                            SyncAction.PULL_AS_TO_DT, reason)

    def _push(self, mapping: Mapping, reason: SyncReason) -> SyncDecision:
        value = self.registry.property_value(mapping.model_id, mapping.element_id,
                                             mapping.property_name)
        out = self.gateway(mapping.gateway_id).write_property(
            mapping.gateway_property, mapping.transform.invert(value))
        edit = self._edit_ledger.get((mapping.model_id, mapping.element_id,
                                      mapping.property_name))
        return self._synced(mapping, out, data_mod.origin_of(edit.cause if edit else "operator"),
                            SyncAction.PUSH_DT_TO_AS, reason)

    def _synced(self, mapping: Mapping, value: Value, origin: data_mod.DataProperty,
                action: SyncAction, reason: SyncReason) -> SyncDecision:
        """Record the live raw ``value`` a sync moved, remember the recency it
        saw, and decide."""
        self.data.ingest(value, [origin, data_mod.timeliness(data_mod.LIVE),
                                 data_mod.processing(data_mod.RAW),
                                 data_mod.last_update(self._tick)],
                         model_link=mapping.model_ref() if self.data.allow_linkage else None)
        self._sync_memory[mapping.mapping_id] = self._recency(mapping)
        return self._decision(mapping, action, reason)

    def _decision(self, mapping: Mapping, action: SyncAction, reason: SyncReason,
                  detail: str = "") -> SyncDecision:
        return SyncDecision(tick=self._tick, mapping_id=mapping.mapping_id,
                            action=action, reason=reason, detail=detail)

    def _suspended(self, mapping: Mapping, detail: str) -> SyncDecision:
        return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED, detail)

    # --- service hooks ---

    def _call_hook(self, svc: _ServiceState, on_tick: Callable) -> None:
        if not svc.enabled:
            return
        try:
            on_tick(svc.client)
        except PermissionDenied as exc:
            svc.enabled = False
            self._notice(service=svc.descriptor.service_id, event="disabled",
                         detail=f"permission denied: {exc.capability or exc}")
        except StorageFailure:
            raise  # an output that cannot be written ends the run, as in a sync
        except TwinError as exc:
            self._notice(service=svc.descriptor.service_id, event="error",
                         detail=str(exc))

    def close(self) -> None:
        """Close every gateway, unwire the engine from the registry and drop
        the services, whose clients hold the engine. No reference cycle then
        holds the engine: it is freed with its last reference. A service
        client called after close is refused like an unregistered service."""
        for handle in self._gateways.values():
            handle.close()
        registry = self.registry
        registry.tick_supplier = lambda: 0  # as in a registry no engine drives
        for listeners, mine in ((registry.change_listeners, self._on_model_change),
                                (registry.mode_listeners, self._on_mode_change)):
            if mine in listeners:
                listeners.remove(mine)
        self._services.clear()
        self._on_tick.clear()
