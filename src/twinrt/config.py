"""Twin configuration: the declarative artifact the CLI loads and audits.

One YAML document declares gateways (optionally with a simulated asset to
host), modeling languages, managers, models, mappings, services, and data
manager settings. Parsing is strict about structure but does not enforce
referential closure — that is the conformance auditor's job, so a broken
configuration can still be loaded and reported on.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .engine import Direction, Mapping, Schedule, Transform, Trigger, TriggerKind
from .errors import ConfigParseError
from .gateway import (
    ElementKind,
    GatewayDescriptor,
    GatewayElementDecl,
    PropertyAccess,
    event_decl,
    function_decl,
    property_decl,
)
from .models import (
    ModelElement,
    ModelingLanguage,
    ModelMode,
    ModelProperty,
    PropertyRule,
)
from .services import Hook, ServiceDescriptor, ServiceGrant
from .values import VALUE_TYPES, fit_value


@dataclass(frozen=True)
class SimulatedAsset:
    model: str
    step_ms: int = 100
    seed: int = 0
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class GatewayConfig:
    descriptor: GatewayDescriptor
    simulate: SimulatedAsset | None = None


@dataclass(frozen=True)
class DelegationConfig:
    operator: str
    target: str
    model_pattern: str = "*"


@dataclass(frozen=True)
class ManagerConfig:
    manager_id: str
    models: tuple[str, ...] = ()
    delegations: tuple[DelegationConfig, ...] = ()


@dataclass(frozen=True)
class ModelConfig:
    model_id: str
    language_id: str
    mode: ModelMode = ModelMode.ONLINE
    last_update: bool = False
    elements: tuple[ModelElement, ...] = ()


@dataclass(frozen=True)
class ServiceConfig:
    service_id: str
    builtin: str | None = None
    params: dict = field(default_factory=dict)
    grant: ServiceGrant | None = None
    hooks: tuple[Hook, ...] = ()

    def descriptor(self) -> ServiceDescriptor:
        hooks = self.hooks
        if self.builtin is not None and not hooks:
            hooks = (Hook("on-tick"),)
        return ServiceDescriptor(service_id=self.service_id, grant=self.grant, hooks=hooks)


@dataclass(frozen=True)
class DataConfig:
    journal: str | None = None
    mandatory_metadata: bool = True
    model_linkage: bool = True


@dataclass(frozen=True)
class TwinConfiguration:
    twin_id: str
    gateways: tuple[GatewayConfig, ...] = ()
    languages: tuple[ModelingLanguage, ...] = ()
    managers: tuple[ManagerConfig, ...] = ()
    models: tuple[ModelConfig, ...] = ()
    mappings: tuple[Mapping, ...] = ()
    services: tuple[ServiceConfig, ...] = ()
    data: DataConfig = DataConfig()

    def gateway(self, gateway_id: str) -> GatewayConfig | None:
        for gw in self.gateways:
            if gw.descriptor.gateway_id == gateway_id:
                return gw
        return None


# --- parsing -----------------------------------------------------------------


def _fail(path: str, message: str) -> ConfigParseError:
    return ConfigParseError(f"{path}: {message}")


def _need(obj: dict, key: str, path: str):
    if not isinstance(obj, dict) or key not in obj:
        raise _fail(path, f"missing required field {key!r}")
    return obj[key]


def _as_str(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise _fail(path, f"expected a non-empty string, got {value!r}")
    return value


def _as_list(value, path: str) -> list:
    if value is None:
        return []
    if not isinstance(value, list):
        raise _fail(path, f"expected a list, got {type(value).__name__}")
    return value


def _as_dict(value, path: str) -> dict:
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _as_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _as_number(value, path: str) -> float:
    # YAML 1.1 reads an exponent without a dot (`1e-3`) as a string, so a
    # string is taken when it reads as a number
    if isinstance(value, bool) or not isinstance(value, (int, float, str)):
        raise _fail(path, f"expected a number, got {value!r}")
    try:
        return float(value)
    except ValueError:
        raise _fail(path, f"expected a number, got {value!r}") from None
    except OverflowError:
        raise _fail(path, "number out of range") from None


def _value_type(value, path: str) -> str:
    value = _as_str(value, path)
    if value not in VALUE_TYPES:
        raise _fail(path, f"unknown value type {value!r} (expected one of {VALUE_TYPES})")
    return value


def _parse_element_decl(obj: dict, path: str) -> GatewayElementDecl:
    name = _as_str(_need(obj, "name", path), f"{path}.name")
    kind = _as_str(_need(obj, "kind", path), f"{path}.kind")
    try:
        if kind == ElementKind.PROPERTY.value:
            access = obj.get("access", "ro")
            if access not in ("ro", "rw"):
                raise _fail(f"{path}.access", f"expected ro or rw, got {access!r}")
            return property_decl(name, _value_type(_need(obj, "type", path), f"{path}.type"),
                                 PropertyAccess(access))
        if kind == ElementKind.EVENT.value:
            return event_decl(name, _value_type(_need(obj, "payload", path), f"{path}.payload"))
        if kind == ElementKind.FUNCTION.value:
            args = [_value_type(a, f"{path}.args[{i}]")
                    for i, a in enumerate(_as_list(obj.get("args"), f"{path}.args"))]
            return function_decl(name, args,
                                 _value_type(_need(obj, "result", path), f"{path}.result"))
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    raise _fail(f"{path}.kind", f"unknown element kind {kind!r}")


def _parse_gateway(obj: dict, path: str) -> GatewayConfig:
    gateway_id = _as_str(_need(obj, "id", path), f"{path}.id")
    endpoint = _as_str(_need(obj, "endpoint", path), f"{path}.endpoint")
    elements = tuple(_parse_element_decl(_as_dict(e, f"{path}.elements[{i}]"),
                                         f"{path}.elements[{i}]")
                     for i, e in enumerate(_as_list(obj.get("elements"), f"{path}.elements")))
    try:
        descriptor = GatewayDescriptor(gateway_id=gateway_id, endpoint=endpoint,
                                       elements=elements)
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc
    simulate = None
    if obj.get("simulate") is not None:
        sim = _as_dict(obj["simulate"], f"{path}.simulate")
        step_ms = _as_int(sim.get("step_ms", 100), f"{path}.simulate.step_ms")
        if step_ms <= 0:
            raise _fail(f"{path}.simulate.step_ms", f"expected a positive integer, got {step_ms}")
        simulate = SimulatedAsset(
            model=_as_str(_need(sim, "model", f"{path}.simulate"), f"{path}.simulate.model"),
            step_ms=step_ms,
            seed=_as_int(sim.get("seed", 0), f"{path}.simulate.seed"),
            params=_as_dict(sim.get("params"), f"{path}.simulate.params"))
    return GatewayConfig(descriptor=descriptor, simulate=simulate)


def _parse_rule(obj: dict, path: str) -> PropertyRule:
    try:
        return PropertyRule(
            rule_id=_as_str(_need(obj, "id", path), f"{path}.id"),
            kind=_as_str(_need(obj, "kind", path), f"{path}.kind"),
            property_name=_as_str(_need(obj, "property", path), f"{path}.property"),
            op=_as_str(_need(obj, "op", path), f"{path}.op"),
            bound=obj.get("bound"),
            other_property=obj.get("other"))
    except Exception as exc:
        if isinstance(exc, ConfigParseError):
            raise
        raise _fail(path, str(exc)) from exc


def _parse_language(obj: dict, path: str) -> ModelingLanguage:
    language_id = _as_str(_need(obj, "id", path), f"{path}.id")
    kinds = _as_dict(_need(obj, "kinds", path), f"{path}.kinds")
    schemas = {}
    for kind, schema in kinds.items():
        schemas[kind] = {name: _value_type(t, f"{path}.kinds.{kind}.{name}")
                         for name, t in _as_dict(schema, f"{path}.kinds.{kind}").items()}
    rules = tuple(_parse_rule(_as_dict(r, f"{path}.rules[{i}]"), f"{path}.rules[{i}]")
                  for i, r in enumerate(_as_list(obj.get("rules"), f"{path}.rules")))
    return ModelingLanguage(language_id=language_id, element_kinds=frozenset(kinds),
                            property_schemas=schemas, rules=rules)


def _parse_manager(obj: dict, path: str) -> ManagerConfig:
    delegations = []
    for i, d in enumerate(_as_list(obj.get("delegations"), f"{path}.delegations")):
        dpath = f"{path}.delegations[{i}]"
        d = _as_dict(d, dpath)
        delegations.append(DelegationConfig(
            operator=_as_str(_need(d, "operator", dpath), f"{dpath}.operator"),
            target=_as_str(_need(d, "to", dpath), f"{dpath}.to"),
            model_pattern=str(d.get("model", "*"))))
    return ManagerConfig(
        manager_id=_as_str(_need(obj, "id", path), f"{path}.id"),
        models=tuple(_as_str(m, f"{path}.models[{i}]")
                     for i, m in enumerate(_as_list(obj.get("models"), f"{path}.models"))),
        delegations=tuple(delegations))


def _parse_model(obj: dict, path: str,
                 languages: dict[str, ModelingLanguage]) -> ModelConfig:
    model_id = _as_str(_need(obj, "id", path), f"{path}.id")
    language_id = _as_str(_need(obj, "language", path), f"{path}.language")
    mode = obj.get("mode", "online")
    if mode not in (ModelMode.ONLINE.value, ModelMode.OFFLINE.value):
        raise _fail(f"{path}.mode", f"expected online or offline, got {mode!r}")
    language = languages.get(language_id)
    elements = []
    for i, e in enumerate(_as_list(obj.get("elements"), f"{path}.elements")):
        epath = f"{path}.elements[{i}]"
        e = _as_dict(e, epath)
        element_id = _as_str(_need(e, "id", epath), f"{epath}.id")
        kind = _as_str(_need(e, "kind", epath), f"{epath}.kind")
        schema = language.schema_for(kind) if language is not None else {}
        properties = {}
        for name, value in _as_dict(e.get("properties"), f"{epath}.properties").items():
            # YAML reads 5 as an int and 5.0 as a float, whatever the schema
            properties[name] = ModelProperty(name=name,
                                             value=fit_value(value, schema.get(name)))
        elements.append(ModelElement(element_id=element_id, kind=kind,
                                     properties=properties))
    return ModelConfig(model_id=model_id, language_id=language_id,
                       mode=ModelMode(mode), last_update=bool(obj.get("last_update", False)),
                       elements=tuple(elements))


def _parse_trigger(obj: dict, path: str) -> Trigger:
    if "event" in obj:
        return Trigger(kind=TriggerKind.GATEWAY_EVENT,
                       gateway_id=_as_str(_need(obj, "gateway", path), f"{path}.gateway"),
                       element=_as_str(obj["event"], f"{path}.event"))
    if "gateway" in obj:
        return Trigger(kind=TriggerKind.GATEWAY_CHANGE,
                       gateway_id=_as_str(obj["gateway"], f"{path}.gateway"),
                       element=_as_str(_need(obj, "property", path), f"{path}.property"))
    if "model" in obj:
        return Trigger(kind=TriggerKind.MODEL_CHANGE,
                       model_id=_as_str(obj["model"], f"{path}.model"),
                       element_id=_as_str(_need(obj, "element", path), f"{path}.element"),
                       property_name=_as_str(_need(obj, "property", path), f"{path}.property"))
    raise _fail(path, "trigger must name a gateway property, gateway event, or model property")


def _parse_mapping(obj: dict, path: str) -> Mapping:
    model_side = _as_dict(_need(obj, "model", path), f"{path}.model")
    gateway_side = _as_dict(_need(obj, "gateway", path), f"{path}.gateway")
    direction = _as_str(_need(obj, "direction", path), f"{path}.direction")
    try:
        direction = Direction(direction)
    except ValueError:
        raise _fail(f"{path}.direction",
                    f"expected one of {[d.value for d in Direction]}, got {direction!r}") from None
    sched = _as_dict(_need(obj, "schedule", path), f"{path}.schedule")
    try:
        if "every" in sched:
            schedule = Schedule(every=_as_int(sched["every"], f"{path}.schedule.every"))
        elif "trigger" in sched:
            schedule = Schedule(trigger=_parse_trigger(
                _as_dict(sched["trigger"], f"{path}.schedule.trigger"),
                f"{path}.schedule.trigger"))
        else:
            raise _fail(f"{path}.schedule", "expected every or trigger")
        transform = Transform()
        if obj.get("transform") is not None:
            t = _as_dict(obj["transform"], f"{path}.transform")
            transform = Transform(
                scale=_as_number(t.get("scale", 1.0), f"{path}.transform.scale"),
                offset=_as_number(t.get("offset", 0.0), f"{path}.transform.offset"),
                unit=t.get("unit"))
        return Mapping(
            mapping_id=_as_str(_need(obj, "id", path), f"{path}.id"),
            model_id=_as_str(_need(model_side, "model", f"{path}.model"), f"{path}.model.model"),
            element_id=_as_str(_need(model_side, "element", f"{path}.model"),
                               f"{path}.model.element"),
            property_name=_as_str(_need(model_side, "property", f"{path}.model"),
                                  f"{path}.model.property"),
            gateway_id=_as_str(_need(gateway_side, "gateway", f"{path}.gateway"),
                               f"{path}.gateway.gateway"),
            gateway_property=_as_str(_need(gateway_side, "property", f"{path}.gateway"),
                                     f"{path}.gateway.property"),
            direction=direction, schedule=schedule, transform=transform,
            enabled=bool(obj.get("enabled", True)))
    except ValueError as exc:
        raise _fail(path, str(exc)) from exc


def _parse_hook(obj, path: str) -> Hook:
    if isinstance(obj, str):
        try:
            return Hook(obj)
        except ValueError as exc:
            raise _fail(path, str(exc)) from exc
    obj = _as_dict(obj, path)
    if "on-event" in obj:
        spec = _as_dict(obj["on-event"], f"{path}.on-event")
        return Hook("on-event",
                    gateway_id=_as_str(_need(spec, "gateway", path), f"{path}.gateway"),
                    event=_as_str(_need(spec, "event", path), f"{path}.event"))
    raise _fail(path, f"unknown hook {obj!r}")


def _parse_service(obj: dict, path: str) -> ServiceConfig:
    grant = None
    if "grant" in obj and obj["grant"] is not None:
        items = [_as_str(g, f"{path}.grant[{i}]")
                 for i, g in enumerate(_as_list(obj["grant"], f"{path}.grant"))]
        try:
            grant = ServiceGrant.parse(items)
        except ValueError as exc:
            raise _fail(f"{path}.grant", str(exc)) from exc
    hooks = tuple(_parse_hook(h, f"{path}.hooks[{i}]")
                  for i, h in enumerate(_as_list(obj.get("hooks"), f"{path}.hooks")))
    return ServiceConfig(
        service_id=_as_str(_need(obj, "id", path), f"{path}.id"),
        builtin=obj.get("builtin"),
        params=_as_dict(obj.get("params"), f"{path}.params"),
        grant=grant, hooks=hooks)


# libyaml composes the document when PyYAML was built with it; the Python
# SafeConstructor and resolver still build the values, so both loaders give
# the same safe YAML 1.1 types. Never a loader that constructs Python objects.
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def _load_yaml(text: str) -> Any:
    """Parse one YAML document with safe construction; raises yaml.YAMLError."""
    try:
        return yaml.load(text, Loader=_LOADER)
    except UnicodeEncodeError as exc:
        # libyaml reads UTF-8, so a lone surrogate fails to encode before
        # parsing; the pure-Python reader rejects it as unprintable
        raise yaml.YAMLError(f"unacceptable character #x{ord(exc.object[exc.start]):04x} "
                             f"at position {exc.start}: {exc.reason}") from exc


def loads(text: str) -> TwinConfiguration:
    try:
        doc = _load_yaml(text)
    except yaml.YAMLError as exc:
        raise ConfigParseError(f"invalid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigParseError("configuration must be a mapping")
    twin_id = doc.get("twin", "twin")
    if not isinstance(twin_id, str) or not twin_id:
        raise ConfigParseError("twin: expected a non-empty string")

    gateways = tuple(_parse_gateway(_as_dict(g, f"gateways[{i}]"), f"gateways[{i}]")
                     for i, g in enumerate(_as_list(doc.get("gateways"), "gateways")))
    languages = tuple(_parse_language(_as_dict(l, f"languages[{i}]"), f"languages[{i}]")
                      for i, l in enumerate(_as_list(doc.get("languages"), "languages")))
    lang_index = {l.language_id: l for l in languages}
    managers = tuple(_parse_manager(_as_dict(m, f"managers[{i}]"), f"managers[{i}]")
                     for i, m in enumerate(_as_list(doc.get("managers"), "managers")))
    models = tuple(_parse_model(_as_dict(m, f"models[{i}]"), f"models[{i}]", lang_index)
                   for i, m in enumerate(_as_list(doc.get("models"), "models")))
    mappings = tuple(_parse_mapping(_as_dict(m, f"mappings[{i}]"), f"mappings[{i}]")
                     for i, m in enumerate(_as_list(doc.get("mappings"), "mappings")))
    services = tuple(_parse_service(_as_dict(s, f"services[{i}]"), f"services[{i}]")
                     for i, s in enumerate(_as_list(doc.get("services"), "services")))
    data_obj = _as_dict(doc.get("data"), "data")
    data = DataConfig(journal=data_obj.get("journal"),
                      mandatory_metadata=bool(data_obj.get("mandatory_metadata", True)),
                      model_linkage=bool(data_obj.get("model_linkage", True)))

    id_lists = {
        "gateway": [g.descriptor.gateway_id for g in gateways],
        "language": [l.language_id for l in languages],
        "manager": [m.manager_id for m in managers],
        "model": [m.model_id for m in models],
        "mapping": [m.mapping_id for m in mappings],
        "service": [s.service_id for s in services],
    }
    for name, ids in id_lists.items():
        dupes = [i for i, n in Counter(ids).items() if n > 1]
        if dupes:
            raise ConfigParseError(f"duplicate {name} id(s): {sorted(dupes)}")

    return TwinConfiguration(twin_id=twin_id, gateways=gateways, languages=languages,
                             managers=managers, models=models, mappings=mappings,
                             services=services, data=data)


def load(path: str | Path) -> TwinConfiguration:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigParseError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigParseError(f"{path} is not UTF-8: {exc}") from exc
    return loads(text)

