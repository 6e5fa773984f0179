"""Added-value services: registered, ticked, and permission-mediated.

A service never holds direct references to models, data, or gateways. Its
implementation's ``on_tick``, if it has one, runs after every tick's syncs
and receives a client whose every call becomes a mediated request checked
against the service's grant — a positive capability set; absence means
denial. The first permission denial disables the service visibly. Two
built-ins ship: a windowed-mean KPI monitor that ingests processed records,
and a threshold guard that invokes a gateway function once per excursion.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any

from .data import (
    HISTORICAL,
    DataProperty,
    ModelElementRef,
    Selector,
    selector_from_dict,
)
from .errors import PermissionDenied, ProtocolError, TwinError, UnresolvedReference
from .values import Value, coerce_real

CAPABILITY_KINDS = ("read-model", "write-model", "read-data", "ingest-data",
                    "read-gateway", "command-gateway")
# capabilities whose target is always the wildcard
_UNTARGETED = ("read-data", "ingest-data")


@dataclass(frozen=True, slots=True)
class ServiceGrant:
    """Positive-only capability set; an empty grant denies everything."""

    entries: frozenset[tuple[str, str]] = frozenset()

    @classmethod
    def parse(cls, items: list[str]) -> "ServiceGrant":
        entries = set()
        for item in items:
            kind, sep, target = item.partition(":")
            if kind not in CAPABILITY_KINDS:
                raise ValueError(f"unknown capability {kind!r}")
            if kind in _UNTARGETED:
                if sep:
                    raise ValueError(f"capability {kind!r} takes no target")
                target = "*"
            elif not sep or not target:
                raise ValueError(f"capability {kind!r} requires a target (or *)")
            entries.add((kind, target))
        return cls(entries=frozenset(entries))

    def allows(self, kind: str, target: str) -> bool:
        return (kind, "*") in self.entries or (kind, target) in self.entries


@dataclass(frozen=True, slots=True)
class ServiceDescriptor:
    """A built-in (named by ``builtin``) runs on every tick; any other service acts over ctl.call."""

    service_id: str
    grant: ServiceGrant | None = None  # None = not explicitly gated (audit flags it)
    builtin: str | None = None
    params: dict = field(default_factory=dict)

    @property
    def effective_grant(self) -> ServiceGrant:
        return self.grant if self.grant is not None else ServiceGrant()


# --- mediated requests --------------------------------------------------------

@dataclass(frozen=True, slots=True)
class ReadModelProperty:
    model_id: str
    element_id: str
    property_name: str


@dataclass(frozen=True, slots=True)
class ApplyOperator:
    manager_id: str
    operator_id: str
    model_id: str
    args: dict[str, Value] = field(default_factory=dict)


@dataclass(frozen=True, slots=True)
class QueryData:
    selector: Selector = field(default_factory=Selector)


@dataclass(frozen=True, slots=True)
class IngestProcessed:
    value: Value
    timeliness: str = HISTORICAL
    extra: tuple[DataProperty, ...] = ()
    link: ModelElementRef | None = None


@dataclass(frozen=True, slots=True)
class ReadGatewayProperty:
    gateway_id: str
    property_name: str


@dataclass(frozen=True, slots=True)
class InvokeFunction:
    gateway_id: str
    function: str
    args: tuple[Value, ...] = ()


ServiceRequest = (ReadModelProperty | ApplyOperator | QueryData | IngestProcessed
                  | ReadGatewayProperty | InvokeFunction)

ALL_REQUEST_TYPES = (ReadModelProperty, ApplyOperator, QueryData, IngestProcessed,
                     ReadGatewayProperty, InvokeFunction)


def _field(obj: dict, name: str, expected: type, *default):
    """``obj[name]``, or ``default`` when it is absent; it must be an ``expected``."""
    value = obj.get(name, *default) if default else obj[name]
    if not isinstance(value, expected):
        raise ProtocolError(f"field {name!r} must be {expected.__name__}, got {value!r}")
    return value


def request_from_wire(obj: dict) -> ServiceRequest:
    """Decode the wire form of a mediated request (out-of-process services).

    A request that is not a mapping, lacks a field or holds a field of the
    wrong type raises ProtocolError.
    """
    if not isinstance(obj, dict):
        raise ProtocolError(f"a request is a mapping, got {obj!r}")
    kind = obj.get("kind")
    try:
        if kind == "read-model-property":
            return ReadModelProperty(_field(obj, "model", str), _field(obj, "element", str),
                                     _field(obj, "property", str))
        if kind == "apply-operator":
            return ApplyOperator(_field(obj, "manager", str), _field(obj, "operator", str),
                                 _field(obj, "model", str), dict(_field(obj, "args", dict, {})))
        if kind == "query-data":
            return QueryData(selector_from_dict(obj.get("selector") or {}))
        if kind == "ingest-processed":
            link = obj.get("link")
            return IngestProcessed(
                obj["value"], timeliness=_field(obj, "timeliness", str, HISTORICAL),
                link=None if link is None else ModelElementRef.from_list(link))
        if kind == "read-gateway-property":
            return ReadGatewayProperty(_field(obj, "gateway", str), _field(obj, "property", str))
        if kind == "invoke-function":
            return InvokeFunction(_field(obj, "gateway", str), _field(obj, "function", str),
                                  tuple(_field(obj, "args", list, [])))
    except KeyError as exc:
        raise ProtocolError(f"request {kind!r} missing field {exc}") from exc
    except ValueError as exc:  # a malformed selector
        raise ProtocolError(str(exc)) from exc
    raise ProtocolError(f"unknown request kind {kind!r}")


def required_capability(request: ServiceRequest) -> tuple[str, str]:
    """Map a request to the (kind, target) capability it needs."""
    if isinstance(request, ReadModelProperty):
        return "read-model", request.model_id
    if isinstance(request, ApplyOperator):
        return "write-model", request.model_id
    if isinstance(request, QueryData):
        return "read-data", "*"
    if isinstance(request, IngestProcessed):
        return "ingest-data", "*"
    if isinstance(request, ReadGatewayProperty):
        return "read-gateway", request.gateway_id
    if isinstance(request, InvokeFunction):
        return "command-gateway", request.gateway_id
    raise TypeError(f"not a service request: {request!r}")


class ServiceClient:
    """The only surface a service sees; every call is mediated by the engine."""

    def __init__(self, mediator, service_id: str):
        self._mediator = mediator
        self.service_id = service_id

    def read_model_property(self, model_id: str, element_id: str, property_name: str) -> Value:
        return self._mediator.mediate_service_call(
            self.service_id, ReadModelProperty(model_id, element_id, property_name))

    def apply_operator(self, manager_id: str, operator_id: str, model_id: str,
                       args: dict[str, Value]):
        return self._mediator.mediate_service_call(
            self.service_id, ApplyOperator(manager_id, operator_id, model_id, args))

    def query_data(self, selector: Selector | None = None):
        return self._mediator.mediate_service_call(
            self.service_id, QueryData(selector or Selector()))

    def ingest_processed(self, value: Value, timeliness: str = HISTORICAL,
                         extra: tuple[DataProperty, ...] = (),
                         link: ModelElementRef | None = None) -> int:
        return self._mediator.mediate_service_call(
            self.service_id, IngestProcessed(value, timeliness, extra, link))

    def read_gateway_property(self, gateway_id: str, property_name: str):
        return self._mediator.mediate_service_call(
            self.service_id, ReadGatewayProperty(gateway_id, property_name))

    def invoke_function(self, gateway_id: str, function: str, args: tuple[Value, ...] = ()):
        return self._mediator.mediate_service_call(
            self.service_id, InvokeFunction(gateway_id, function, tuple(args)))

    def report(self, message: str) -> None:
        """Record a failure the service handled itself as an ``error`` notice."""
        self._mediator.report_service_error(self.service_id, message)


# --- built-in services ---------------------------------------------------------

class KpiMonitor:
    """Every ``window`` ticks, ingest the window mean of one model property.

    Needs read-model on the watched model and ingest-data. Records are
    processed/historical with the service as origin and link back to the
    watched property.
    """

    def __init__(self, window: int, ref: ModelElementRef):
        if type(window) is not int or window < 1:
            raise ValueError(f"window must be an integer >= 1, got {window!r}")
        self.window = window
        self.ref = ref
        self._buffer: list[float] = []

    def on_tick(self, ctx: ServiceClient) -> None:
        value = ctx.read_model_property(self.ref.model_id, self.ref.element_id,
                                        self.ref.property_name)
        self._buffer.append(coerce_real(value))
        if len(self._buffer) >= self.window:
            mean = sum(self._buffer) / len(self._buffer)
            self._buffer.clear()
            ctx.ingest_processed(mean, link=self.ref)


class ThresholdGuard:
    """Invoke a gateway function once each time a model property exceeds a bound.

    Re-arms when the value returns to the bound or below. Needs read-model
    and command-gateway. Invoke failures other than permission denials are
    reported and do not stop the guard.
    """

    def __init__(self, ref: ModelElementRef, bound: float, gateway_id: str,
                 function: str, args: tuple[Value, ...] = ()):
        if isinstance(bound, bool) or not isinstance(bound, (int, float)):
            raise ValueError(f"bound must be a number, got {bound!r}")
        if not abs(bound) <= sys.float_info.max:  # NaN, ±inf, or an int no float holds
            raise ValueError(f"bound must be a finite number, got {bound!r}")
        self.ref = ref
        self.bound = float(bound)
        self.gateway_id = gateway_id
        self.function = function
        self.args = tuple(args)
        self._armed = True

    def on_tick(self, ctx: ServiceClient) -> None:
        value = coerce_real(ctx.read_model_property(
            self.ref.model_id, self.ref.element_id, self.ref.property_name))
        if value > self.bound:
            if self._armed:
                self._armed = False
                try:
                    ctx.invoke_function(self.gateway_id, self.function, self.args)
                except PermissionDenied:
                    raise
                except TwinError as exc:
                    ctx.report(f"{self.function} on {self.gateway_id} failed: {exc}")
        else:
            self._armed = True


def _text(params: dict[str, Any], name: str) -> str:
    value = params[name]
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be non-empty text, got {value!r}")
    return value


def _ref_from_params(params: dict[str, Any]) -> ModelElementRef:
    return ModelElementRef(model_id=_text(params, "model"), element_id=_text(params, "element"),
                           property_name=_text(params, "property"))


def build_builtin(name: str, params: dict[str, Any]):
    """Construct a built-in service implementation from configuration params.

    Every parameter is read as it is written, never converted: one that is
    missing or of the wrong type is a ValueError naming it. An unknown name
    is an UnresolvedReference, as the audit reports it (rule C7).
    """
    try:
        if name == "kpi_monitor":
            return KpiMonitor(window=params["window"], ref=_ref_from_params(params))
        if name == "threshold_guard":
            args = params.get("args", [])
            if not isinstance(args, list):
                raise ValueError(f"args must be a list, got {args!r}")
            return ThresholdGuard(ref=_ref_from_params(params), bound=params["bound"],
                                  gateway_id=_text(params, "gateway"),
                                  function=_text(params, "function"), args=tuple(args))
    except KeyError as exc:
        raise ValueError(f"builtin {name!r} missing parameter {exc}") from exc
    raise UnresolvedReference(f"unknown builtin service {name!r}")


BUILTIN_SERVICE_NAMES = ("kpi_monitor", "threshold_guard")
