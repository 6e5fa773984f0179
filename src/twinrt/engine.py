"""The twin engine: mappings, the synchronizer, and all mediation.

One orchestration loop owns every mutation. Pushes are read from a gateway
only inside its calls: each request routes the pushes that arrive before its
reply, and the rest wait in the kernel's socket buffers. At tick start the
engine pings every gateway, which reads everything pushed before the pong,
and only then drains the streams, so two runs over the same scripted asset
trace produce identical decision lists, model states, and data journals.
Every caller steps its assets once per tick, so a tick's pushes stay far
below what the socket buffers hold. The engine keeps no stream table: the
handle's is the one record of what the twin listens to. An element's stream
is opened only when its handle has none, and each tick drains the handles'
streams in fixed order: gateways by id, then property streams by name, then
event streams by name.

For an observed property the newest update drained after the barrier is
the asset's current value, so a pull takes it from the ledger. It reads the
property only when no update has been drained yet, or when another has
arrived since the drain (the echo of a push in the same tick). A property is
observed for a bidirectional mapping or a change trigger, never only to save
a pull's read: every observed change is a push, and a push followed by a
reply on the same connection makes the reply wait for the twin's delayed
ACK (Nagle's algorithm, about 40 ms on Linux). Properties nothing observes
are read on every pull.

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
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Callable

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
    TickSequenceError,
    TransformFailure,
    TwinError,
    UnresolvedGatewaySide,
    UnresolvedModelSide,
)
from .gateway import ERROR_CODES, ElementKind, GatewayHandle, PropertyAccess, Stream
from .models import ModelMode, ModelRegistry
from .services import (
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
from .values import Value, coerce_real, fit_value


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Schedule:
    """Either every n ticks (n >= 1) or on a trigger occurrence."""

    every: int | None = None
    trigger: Trigger | None = None

    def __post_init__(self):
        if (self.every is None) == (self.trigger is None):
            raise ValueError("schedule is either every-n-ticks or on-trigger")
        if self.every is not None and self.every < 1:
            raise ValueError("schedule period must be >= 1")


@dataclass(frozen=True)
class Transform:
    """Affine value transform applied in the AS-to-DT direction.

    model_value = scale * gateway_value + offset; the inverse is used when
    pushing DT to AS, which is why scale may not be zero. The identity
    transform passes any value type through; a non-identity transform
    requires numeric values.
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

    def apply(self, value: Value) -> Value:
        if self.is_identity:
            return value
        try:
            return self.scale * coerce_real(value) + self.offset
        except SchemaViolation as exc:
            raise TransformFailure(str(exc)) from exc

    def invert(self, value: Value) -> Value:
        if self.is_identity:
            return value
        try:
            return (coerce_real(value) - self.offset) / self.scale
        except SchemaViolation as exc:
            raise TransformFailure(str(exc)) from exc


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass
class _Observation:
    tick: int
    value: Value


@dataclass
class _Edit:
    tick: int
    cause: str  # "operator" | "service:<id>"


@dataclass
class _ServiceState:
    descriptor: ServiceDescriptor
    impl: Any
    client: ServiceClient
    enabled: bool = True
    disabled_reason: str = ""


# what a failed gateway request raises besides Disconnected; it suspends the sync
_GATEWAY_FAULTS = tuple(ERROR_CODES.values())


def _drain_order(stream: Stream) -> tuple[bool, str]:
    """Property streams by name, then event streams by name."""
    return stream.kind is not ElementKind.PROPERTY, stream.element


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
        self._scheduled: list[str] = []  # sorted ids of every-n-ticks mappings
        self._asset_ledger: dict[tuple[str, str], _Observation] = {}
        self._edit_ledger: dict[tuple[str, str, str], _Edit] = {}
        self._sync_memory: dict[str, tuple[int, int]] = {}
        self._pending_triggers: list[tuple] = []  # occurrence keys, FIFO
        self._needs_reconcile: set[str] = set()
        self._services: dict[str, _ServiceState] = {}
        self.decisions: list[SyncDecision] = []
        self.notices: list[dict] = []
        self.mediated_log: list[dict] = []  # every service request, allowed or not
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
        notice = {"kind": "service", "tick": self.effective_tick(), **fields}
        self.notices.append(notice)
        self._emit(notice)

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
        if not self.registry.resolve(mapping.model_ref()):
            raise UnresolvedModelSide(
                f"{mapping.mapping_id}: {mapping.model_id}/{mapping.element_id}."
                f"{mapping.property_name} does not resolve")
        handle = self._gateways.get(mapping.gateway_id)
        if handle is None:
            raise UnresolvedGatewaySide(
                f"{mapping.mapping_id}: gateway {mapping.gateway_id!r} is not attached")
        decl = handle.descriptor.element(mapping.gateway_property)
        if decl is None or decl.kind is not ElementKind.PROPERTY:
            raise UnresolvedGatewaySide(
                f"{mapping.mapping_id}: {mapping.gateway_id} has no property "
                f"{mapping.gateway_property!r}")
        if mapping.direction in (Direction.DT_TO_AS, Direction.BIDIRECTIONAL):
            if decl.access is not PropertyAccess.READ_WRITE:
                raise ReadOnlyTarget(
                    f"{mapping.mapping_id}: {mapping.gateway_property!r} is read-only")
        if mapping.direction is Direction.BIDIRECTIONAL:
            if not self.registry.model(mapping.model_id).supports_last_update:
                raise MissingLastUpdateSupport(
                    f"{mapping.mapping_id}: model {mapping.model_id!r} does not "
                    f"maintain a last-update property")
        trigger = mapping.schedule.trigger
        if trigger is not None:
            self._check_trigger(mapping.mapping_id, trigger)
        self._mappings[mapping.mapping_id] = mapping
        self._sync_memory[mapping.mapping_id] = (0, 0)
        if trigger is None:
            bisect.insort(self._scheduled, mapping.mapping_id)
        else:
            bisect.insort(self._by_trigger.setdefault(trigger.key(), []), mapping.mapping_id)
        self._subscribe_mapping(mapping)

    def _check_trigger(self, mapping_id: str, trigger: Trigger) -> None:
        if trigger.kind is TriggerKind.MODEL_CHANGE:
            ref = ModelElementRef(trigger.model_id, trigger.element_id, trigger.property_name)
            if not self.registry.resolve(ref):
                raise UnresolvedModelSide(f"{mapping_id}: trigger {ref} does not resolve")
            return
        handle = self._gateways.get(trigger.gateway_id)
        decl = handle.descriptor.element(trigger.element) if handle else None
        if decl is None:
            raise UnresolvedGatewaySide(
                f"{mapping_id}: trigger element {trigger.gateway_id}/{trigger.element} "
                f"does not resolve")
        wanted = (ElementKind.PROPERTY if trigger.kind is TriggerKind.GATEWAY_CHANGE
                  else ElementKind.EVENT)
        if decl.kind is not wanted:
            raise UnresolvedGatewaySide(
                f"{mapping_id}: trigger element {trigger.element!r} is a "
                f"{decl.kind.value}, expected {wanted.value}")

    def set_mapping_enabled(self, mapping_id: str, enabled: bool) -> None:
        mapping = self._mappings.get(mapping_id)
        if mapping is None:
            raise KeyError(f"no mapping {mapping_id!r}")
        self._mappings[mapping_id] = replace(mapping, enabled=enabled)

    def _subscribe_mapping(self, mapping: Mapping) -> None:
        """Observe/subscribe the gateway elements one mapping must hear about."""
        if mapping.direction is Direction.BIDIRECTIONAL:
            self._open_stream(mapping.gateway_id, mapping.gateway_property, "observe_property")
        trigger = mapping.schedule.trigger
        if trigger is None:
            return
        if trigger.kind is TriggerKind.GATEWAY_CHANGE:
            self._open_stream(trigger.gateway_id, trigger.element, "observe_property")
        elif trigger.kind is TriggerKind.GATEWAY_EVENT:
            self._open_stream(trigger.gateway_id, trigger.element, "subscribe_event")

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

    def register_service(self, descriptor: ServiceDescriptor, impl: Any) -> None:
        if descriptor.service_id in self._services:
            raise DuplicateService(f"service {descriptor.service_id!r} already registered")
        for kind, target in descriptor.effective_grant.entries:
            if target == "*":
                continue
            if kind in ("read-model", "write-model"):
                if target not in self.registry.models():
                    raise DanglingGrantTarget(f"grant names unknown model {target!r}")
            elif kind in ("read-gateway", "command-gateway"):
                if target not in self._gateways:
                    raise DanglingGrantTarget(f"grant names unknown gateway {target!r}")
        client = ServiceClient(self, descriptor.service_id)
        client.report = lambda message: self._notice(  # type: ignore[attr-defined]
            service=descriptor.service_id, event="error", detail=message)
        self._services[descriptor.service_id] = _ServiceState(
            descriptor=descriptor, impl=impl, client=client)
        for hook in descriptor.hooks:
            if hook.kind == "on-event":
                self._open_stream(hook.gateway_id, hook.event, "subscribe_event")

    def set_service_enabled(self, service_id: str, enabled: bool) -> None:
        svc = self._services.get(service_id)
        if svc is None:
            raise KeyError(f"no service {service_id!r}")
        svc.enabled = enabled
        if enabled:
            svc.disabled_reason = ""

    def services(self) -> list[str]:
        return sorted(self._services)

    def service_enabled(self, service_id: str) -> bool:
        return self._services[service_id].enabled

    # --- mediation ---

    def mediate_service_call(self, service_id: str, request: ServiceRequest):
        svc = self._services.get(service_id)
        if svc is None:
            raise PermissionDenied(f"service {service_id!r} is not registered")
        kind, target = required_capability(request)
        allowed = svc.descriptor.effective_grant.allows(kind, target)
        self.mediated_log.append({"tick": self.effective_tick(), "service": service_id,
                                  "capability": kind, "target": target,
                                  "allowed": allowed})
        if not allowed:
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
            if principal == "operator":
                origin = data_mod.origin_operator()
            else:
                origin = data_mod.origin_service(principal.split(":", 1)[1])
            props = [origin, data_mod.timeliness(request.timeliness),
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
            events = self._drain_gateways()
            fired = self._collect_fired(now_tick)
            decisions = []
            synced: set[str] = set()
            for mapping_id, reason in fired:
                if mapping_id in synced:
                    continue
                synced.add(mapping_id)
                decision = self.sync_mapping(self._mappings[mapping_id], reason)
                decisions.append(decision)
                self.decisions.append(decision)
                self._emit(decision.to_dict())
            self._run_hooks(events, decisions)
            return decisions
        finally:
            self._in_tick = False

    def _drain_gateways(self) -> list[tuple[str, str, Any]]:
        """Pull everything the assets pushed since last tick, in fixed order."""
        events: list[tuple[str, str, Any]] = []
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
                    for occurrence in stream.drain():
                        self._pending_triggers.append(
                            (TriggerKind.GATEWAY_EVENT.value, gateway_id, name))
                        events.append((gateway_id, name, occurrence))
        return events

    def _collect_fired(self, now_tick: int) -> list[tuple[str, SyncReason]]:
        fired: list[tuple[str, SyncReason]] = []
        # triggered work first: queued occurrences in FIFO order, coalesced
        pending, self._pending_triggers = self._pending_triggers, []
        seen: set[tuple] = set()
        for occurrence in pending:
            if occurrence in seen:
                continue
            seen.add(occurrence)
            for mapping_id in self._by_trigger.get(occurrence, ()):
                if self._mappings[mapping_id].enabled:
                    fired.append((mapping_id, SyncReason.TRIGGERED))
        # reconciliation after a model came back online
        reconcile, self._needs_reconcile = self._needs_reconcile, set()
        for mapping_id in sorted(reconcile):
            mapping = self._mappings.get(mapping_id)
            if mapping is not None and mapping.enabled:
                fired.append((mapping_id, SyncReason.TRIGGERED))
        # scheduled work
        for mapping_id in self._scheduled:
            mapping = self._mappings[mapping_id]
            if mapping.enabled and now_tick % mapping.schedule.every == 0:
                fired.append((mapping_id, SyncReason.SCHEDULED))
        return fired

    # --- synchronization ---

    def sync_mapping(self, mapping: Mapping, reason: SyncReason) -> SyncDecision:
        model = self.registry.model(mapping.model_id)
        if model.mode is ModelMode.OFFLINE:
            return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED,
                                  "model offline")
        handle = self._gateways.get(mapping.gateway_id)
        if handle is None or not handle.is_alive:
            return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED,
                                  "gateway unavailable")
        try:
            if mapping.direction is Direction.AS_TO_DT:
                return self._pull(mapping, reason)
            if mapping.direction is Direction.DT_TO_AS:
                return self._push(mapping, reason)
            return self._sync_bidirectional(mapping, reason)
        except Disconnected:
            return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED,
                                  "gateway disconnected")
        except _GATEWAY_FAULTS as exc:
            return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED,
                                  f"gateway error: {exc}")
        except TransformFailure as exc:
            return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED,
                                  f"transform failure: {exc}")
        except IntegrityViolation as exc:
            # the asset persistently violates a model rule: disable, surface
            self.set_mapping_enabled(mapping.mapping_id, False)
            return self._decision(mapping, SyncAction.NO_OP, SyncReason.SUSPENDED,
                                  f"integrity violation, mapping disabled: {exc}")

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
        value = fit_value(mapping.transform.apply(self._asset_value(mapping)),
                          self.registry.declared_type(mapping.model_id, mapping.element_id,
                                                      mapping.property_name))
        owner = self.registry.owner_of(mapping.model_id)
        self.registry.apply_operator(owner, "set_property", mapping.model_id,
                                     {"element": mapping.element_id,
                                      "property": mapping.property_name,
                                      "value": value}, cause="sync")
        self.data.ingest(value, [
            data_mod.origin_actual_system(mapping.gateway_id),
            data_mod.timeliness(data_mod.LIVE),
            data_mod.processing(data_mod.RAW),
            data_mod.last_update(self._tick),
        ], model_link=mapping.model_ref())
        self._sync_memory[mapping.mapping_id] = self._recency(mapping)
        return self._decision(mapping, SyncAction.PULL_AS_TO_DT, reason)

    def _push(self, mapping: Mapping, reason: SyncReason) -> SyncDecision:
        value = self.registry.property_value(mapping.model_id, mapping.element_id,
                                             mapping.property_name)
        out = mapping.transform.invert(value)
        handle = self.gateway(mapping.gateway_id)
        decl = handle.descriptor.element(mapping.gateway_property)
        out = fit_value(out, decl.value_type if decl else None)
        handle.write_property(mapping.gateway_property, out)
        edit = self._edit_ledger.get((mapping.model_id, mapping.element_id,
                                      mapping.property_name))
        if edit is not None and edit.cause.startswith("service:"):
            origin = data_mod.origin_service(edit.cause.split(":", 1)[1])
        else:
            origin = data_mod.origin_operator()
        self.data.ingest(out, [
            origin,
            data_mod.timeliness(data_mod.LIVE),
            data_mod.processing(data_mod.RAW),
            data_mod.last_update(self._tick),
        ], model_link=mapping.model_ref())
        self._sync_memory[mapping.mapping_id] = self._recency(mapping)
        return self._decision(mapping, SyncAction.PUSH_DT_TO_AS, reason)

    def _decision(self, mapping: Mapping, action: SyncAction, reason: SyncReason,
                  detail: str = "") -> SyncDecision:
        return SyncDecision(tick=self._tick, mapping_id=mapping.mapping_id,
                            action=action, reason=reason, detail=detail)

    # --- service hooks ---

    def _run_hooks(self, events: list[tuple[str, str, Any]],
                   decisions: list[SyncDecision]) -> None:
        for gateway_id, event_name, occurrence in events:
            for service_id in sorted(self._services):
                svc = self._services[service_id]
                if not svc.enabled:
                    continue
                for hook in svc.descriptor.hooks:
                    if (hook.kind == "on-event" and hook.gateway_id == gateway_id
                            and hook.event == event_name):
                        self._call_hook(svc, "on_event", occurrence)
        for decision in decisions:
            for service_id in sorted(self._services):
                svc = self._services[service_id]
                if svc.enabled and any(h.kind == "on-decision" for h in svc.descriptor.hooks):
                    self._call_hook(svc, "on_decision", decision)
        for service_id in sorted(self._services):
            svc = self._services[service_id]
            if svc.enabled and any(h.kind == "on-tick" for h in svc.descriptor.hooks):
                self._call_hook(svc, "on_tick")

    def _call_hook(self, svc: _ServiceState, hook_name: str, *args) -> None:
        fn = getattr(svc.impl, hook_name, None)
        if fn is None:
            return
        try:
            fn(svc.client, *args)
        except PermissionDenied as exc:
            svc.enabled = False
            svc.disabled_reason = str(exc)
            self._notice(service=svc.descriptor.service_id, event="disabled",
                         detail=f"permission denied: {exc.capability or exc}")
        except TwinError as exc:
            self._notice(service=svc.descriptor.service_id, event="error",
                         detail=str(exc))

    def close(self) -> None:
        for handle in self._gateways.values():
            try:
                handle.close()
            except TwinError:
                pass
